package core

import (
	"testing"
	"testing/quick"

	"rwp/internal/cache"
	"rwp/internal/mem"
	"rwp/internal/policy"
	"rwp/internal/probe"
	"rwp/internal/xrand"
)

func newRWPCache(t *testing.T, sizeBytes, ways int, cfg Config) (*cache.Cache, *RWP) {
	t.Helper()
	p := New(cfg)
	c, err := cache.New(cache.Config{Name: "llc", SizeBytes: sizeBytes, Ways: ways, LineSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Interval = 1000
	cfg.SamplerSets = 4
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.SamplerSets = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero sampler sets accepted")
	}
	bad = DefaultConfig()
	bad.Interval = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestRegisteredInPolicyRegistry(t *testing.T) {
	p, err := policy.New("rwp")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "rwp" {
		t.Fatalf("Name() = %q", p.Name())
	}
}

func TestBestDirtyWaysExhaustive(t *testing.T) {
	// Property: BestDirtyWays returns the argmax over all d, preferring
	// the smallest d on ties, verified against a brute-force evaluation.
	f := func(seed int64, ch, dh [8]uint16) bool {
		clean := make([]uint64, 8)
		dirty := make([]uint64, 8)
		for i := 0; i < 8; i++ {
			clean[i] = uint64(ch[i] % 100)
			dirty[i] = uint64(dh[i] % 100)
		}
		got := BestDirtyWays(clean, dirty)
		hits := func(d int) uint64 {
			var h uint64
			for i := 0; i < 8-d; i++ {
				h += clean[i]
			}
			for i := 0; i < d; i++ {
				h += dirty[i]
			}
			return h
		}
		best := hits(got)
		for d := 0; d <= 8; d++ {
			if hits(d) > best {
				return false
			}
			if hits(d) == best && d < got {
				return false // tie must prefer smaller d
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// bestDirtyWaysPrefix is the prefix-sum form BestDirtyWays had before
// it was rewritten with running sums (no per-retarget scratch arrays);
// kept as the reference the rewrite is compared against.
func bestDirtyWaysPrefix(cleanHist, dirtyHist []uint64) int {
	ways := len(cleanHist)
	// cleanPfx[k] = hits with distance < k.
	cleanPfx := make([]uint64, ways+1)
	dirtyPfx := make([]uint64, ways+1)
	for i := 0; i < ways; i++ {
		cleanPfx[i+1] = cleanPfx[i] + cleanHist[i]
		dirtyPfx[i+1] = dirtyPfx[i] + dirtyHist[i]
	}
	best, bestHits := 0, uint64(0)
	for d := 0; d <= ways; d++ {
		if h := cleanPfx[ways-d] + dirtyPfx[d]; h > bestHits {
			best, bestHits = d, h
		}
	}
	return best
}

// TestBestDirtyWaysMatchesPrefixSums compares the running-sum form to
// the reference on random histograms of every width up to 32 ways:
// sparse ones (most buckets zero, so ties are common and the smaller-d
// tie-break is exercised) and dense ones.
func TestBestDirtyWaysMatchesPrefixSums(t *testing.T) {
	rng := xrand.New(0x5eed)
	for trial := 0; trial < 20000; trial++ {
		ways := rng.Intn(33)
		clean := make([]uint64, ways)
		dirty := make([]uint64, ways)
		sparse := trial%2 == 0
		for i := 0; i < ways; i++ {
			if !sparse || rng.Uint64()%4 == 0 {
				clean[i] = rng.Uint64() % 8
			}
			if !sparse || rng.Uint64()%4 == 0 {
				dirty[i] = rng.Uint64() % 8
			}
		}
		if got, want := BestDirtyWays(clean, dirty), bestDirtyWaysPrefix(clean, dirty); got != want {
			t.Fatalf("clean %v dirty %v: BestDirtyWays = %d, prefix-sum reference = %d", clean, dirty, got, want)
		}
	}
}

func TestBestDirtyWaysCorners(t *testing.T) {
	// All read hits clean → d = 0.
	if d := BestDirtyWays([]uint64{5, 5, 5, 5}, []uint64{0, 0, 0, 0}); d != 0 {
		t.Fatalf("all-clean hits → d = %d, want 0", d)
	}
	// All read hits dirty → d = assoc.
	if d := BestDirtyWays([]uint64{0, 0, 0, 0}, []uint64{5, 5, 5, 5}); d != 4 {
		t.Fatalf("all-dirty hits → d = %d, want 4", d)
	}
	// No hits at all → d = 0 (prefer clean).
	if d := BestDirtyWays(make([]uint64, 4), make([]uint64, 4)); d != 0 {
		t.Fatalf("no hits → d = %d, want 0", d)
	}
	// Clean hits near MRU, dirty hits far: small dirty partition wins.
	if d := BestDirtyWays([]uint64{10, 10, 0, 0}, []uint64{0, 0, 0, 10}); d != 0 {
		t.Fatalf("near-clean far-dirty → d = %d, want 0", d)
	}
	// Counts past 2^32 are summed in full: 2^32 clean hits outweigh one
	// dirty hit.
	if d := BestDirtyWays([]uint64{1 << 32, 0, 0, 0}, []uint64{0, 0, 0, 1}); d != 0 {
		t.Fatalf("2^32 clean hits vs 1 dirty → d = %d, want 0", d)
	}
}

func TestTargetWithinRangeAlways(t *testing.T) {
	cfg := smallCfg()
	c, p := newRWPCache(t, 8192, 4, cfg) // 32 sets
	rec := probe.NewRecorder(0)
	p.SetProbe(rec)
	for i := 0; i < 50000; i++ {
		line := mem.LineAddr(i * 31 % 4096)
		class := cache.Class(i % 3)
		c.Access(line, mem.Addr(i), class, 0)
		if p.TargetDirty() < 0 || p.TargetDirty() > 4 {
			t.Fatalf("target %d out of [0,4]", p.TargetDirty())
		}
	}
	if p.Intervals() == 0 {
		t.Fatal("no repartitionings happened")
	}
	if uint64(len(rec.Retargets)) != p.Intervals() {
		t.Fatal("retarget event count disagrees with interval count")
	}
}

// TestRetargetDirsConserved: every repartitioning is classified as
// exactly one of up/down/same, the counts agree with the Retarget
// event stream, and they sum to the interval count — the conservation law
// the live telemetry's per-set aggregation relies on.
func TestRetargetDirsConserved(t *testing.T) {
	cfg := smallCfg()
	c, p := newRWPCache(t, 8192, 4, cfg)
	rec := probe.NewRecorder(0)
	p.SetProbe(rec)
	for i := 0; i < 50000; i++ {
		c.Access(mem.LineAddr(i*31%4096), mem.Addr(i), cache.Class(i%3), 0)
	}
	up, down, same := p.RetargetDirs()
	if up+down+same != p.Intervals() {
		t.Fatalf("up %d + down %d + same %d != intervals %d", up, down, same, p.Intervals())
	}
	var wantUp, wantDown, wantSame uint64
	prev := 4 / 2 // Attach's initial target: ways/2
	for _, ev := range rec.Retargets {
		d := ev.Target
		switch {
		case d > prev:
			wantUp++
		case d < prev:
			wantDown++
		default:
			wantSame++
		}
		prev = d
	}
	if up != wantUp || down != wantDown || same != wantSame {
		t.Fatalf("dirs (%d,%d,%d) disagree with history replay (%d,%d,%d)",
			up, down, same, wantUp, wantDown, wantSame)
	}
	if p.Intervals() == 0 {
		t.Fatal("no repartitionings happened — conservation check is vacuous")
	}
}

func TestPartitionGrowsDirtyWhenDirtyServesReads(t *testing.T) {
	// Workload: a producer-consumer ring — every line is written and then
	// read back 64 writes later, so a written line must survive in the
	// dirty partition across its write→first-read window (≈2 ways per
	// set). A never-reused clean scan competes for the same capacity.
	// The predictor must grow the dirty partition.
	cfg := smallCfg()
	_, p := newRWPCacheWithRun(t, cfg, func(c *cache.Cache) {
		const ring, lag = 256, 64
		scan := mem.LineAddr(1 << 20)
		for i := 0; i < 60000; i++ {
			c.Access(mem.LineAddr(i%ring), 0, cache.DemandStore, 0)
			c.Access(mem.LineAddr((i-lag+ring*256)%ring), 0, cache.DemandLoad, 0)
			c.Access(scan, 0, cache.DemandLoad, 0) // clean, never reused
			scan++
		}
	})
	if p.TargetDirty() < 2 {
		t.Fatalf("dirty-read workload → target %d, want >= 2", p.TargetDirty())
	}
}

func TestPartitionShrinksDirtyWhenWritesAreUseless(t *testing.T) {
	// Workload: a write-only stream (never read) plus a hot read-only
	// set. The predictor must shrink the dirty partition toward zero.
	cfg := smallCfg()
	_, p := newRWPCacheWithRun(t, cfg, func(c *cache.Cache) {
		wr := mem.LineAddr(1 << 20)
		for i := 0; i < 30000; i++ {
			c.Access(mem.LineAddr(i%96), 0, cache.DemandLoad, 0) // hot clean reads
			c.Access(wr, 0, cache.DemandStore, 0)                // write-once
			wr++
		}
	})
	if p.TargetDirty() != 0 {
		t.Fatalf("write-only workload → target %d, want 0", p.TargetDirty())
	}
}

func newRWPCacheWithRun(t *testing.T, cfg Config, run func(*cache.Cache)) (*cache.Cache, *RWP) {
	t.Helper()
	c, p := newRWPCache(t, 8192, 4, cfg)
	run(c)
	return c, p
}

func TestRWPBeatsLRUOnWriteOnceReadMany(t *testing.T) {
	// The paper's motivating scenario: a read working set slightly larger
	// than what LRU retains, competing against write-once lines that are
	// never read. RWP should suffer fewer read misses than LRU.
	run := func(p cache.Policy) uint64 {
		c, err := cache.New(cache.Config{Name: "llc", SizeBytes: 16384, Ways: 8, LineSize: 64}, p)
		if err != nil {
			t.Fatal(err)
		}
		wr := mem.LineAddr(1 << 20)
		for i := 0; i < 200000; i++ {
			c.Access(mem.LineAddr(i%224), 0, cache.DemandLoad, 0) // 224 of 256 lines
			if i%2 == 0 {
				c.Access(wr, 0, cache.Writeback, 0) // write-only traffic
				wr++
			}
		}
		return c.Stats().ReadMisses()
	}
	cfg := DefaultConfig()
	cfg.Interval = 5000
	cfg.SamplerSets = 8
	rwpMisses := run(New(cfg))
	lru, err := policy.New("lru")
	if err != nil {
		t.Fatal(err)
	}
	lruMisses := run(lru)
	if rwpMisses >= lruMisses {
		t.Fatalf("RWP read misses %d >= LRU %d on write-once/read-many mix", rwpMisses, lruMisses)
	}
	// The gap should be substantial (paper-shape: large).
	if float64(rwpMisses) > 0.8*float64(lruMisses) {
		t.Logf("warning: RWP %d vs LRU %d — smaller gap than expected", rwpMisses, lruMisses)
	}
}

func TestVictimRespectsPartition(t *testing.T) {
	// Force a known target and verify victim class selection directly.
	cfg := smallCfg()
	cfg.Interval = 1 << 62 // never repartition
	cfg.InitialDirtyTarget = 1
	p := New(cfg)
	c, err := cache.New(cache.Config{Name: "llc", SizeBytes: 64 * 4, Ways: 4, LineSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Fill: 2 dirty, 2 clean. Dirty count (2) > target (1) → evict dirty LRU.
	c.Access(1, 0, cache.DemandStore, 0) // dirty, oldest dirty
	c.Access(2, 0, cache.DemandLoad, 0)  // clean
	c.Access(3, 0, cache.DemandStore, 0) // dirty
	c.Access(4, 0, cache.DemandLoad, 0)  // clean
	res := c.Access(5, 0, cache.DemandLoad, 0)
	if !res.Writeback || res.WritebackLine != 1 {
		t.Fatalf("expected eviction of dirty LRU line 1, got %+v", res)
	}
	// Now 1 dirty (line 3) == target 1 → still evict dirty LRU (at quota).
	res = c.Access(6, 0, cache.DemandLoad, 0)
	if !res.Writeback || res.WritebackLine != 3 {
		t.Fatalf("expected eviction of dirty line 3, got %+v", res)
	}
	// Now 0 dirty < target → evict clean LRU (line 2).
	c.Access(7, 0, cache.DemandLoad, 0)
	if _, _, ok := c.Lookup(2); ok {
		t.Fatal("clean LRU line 2 not evicted when dirty partition under quota")
	}
}

func TestVictimFallsBackAcrossPartitions(t *testing.T) {
	cfg := smallCfg()
	cfg.Interval = 1 << 62
	cfg.InitialDirtyTarget = 4 // want all-dirty
	p := New(cfg)
	c, err := cache.New(cache.Config{Name: "llc", SizeBytes: 64 * 2, Ways: 2, LineSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	// All-clean set; dirty (0) < target → clean LRU eviction must work.
	c.Access(1, 0, cache.DemandLoad, 0)
	c.Access(2, 0, cache.DemandLoad, 0)
	c.Access(3, 0, cache.DemandLoad, 0)
	if _, _, ok := c.Lookup(1); ok {
		t.Fatal("clean fallback failed to evict LRU")
	}
	// All-dirty set with target 0 via a fresh cache.
	cfg.InitialDirtyTarget = 0
	p2 := New(cfg)
	c2, err := cache.New(cache.Config{Name: "llc", SizeBytes: 64 * 2, Ways: 2, LineSize: 64}, p2)
	if err != nil {
		t.Fatal(err)
	}
	c2.Access(1, 0, cache.DemandStore, 0)
	c2.Access(2, 0, cache.DemandStore, 0)
	c2.Access(3, 0, cache.DemandStore, 0)
	if _, _, ok := c2.Lookup(1); ok {
		t.Fatal("dirty eviction with target 0 failed")
	}
}

func TestShadowStackBehavior(t *testing.T) {
	st := shadowStack{cap: 3}
	st.insertMRU(10, false)
	st.insertMRU(20, false)
	st.insertMRU(30, false)
	if st.size() != 3 {
		t.Fatalf("size = %d", st.size())
	}
	if d := st.find(10); d != 2 {
		t.Fatalf("find(10) = %d, want 2 (LRU)", d)
	}
	st.insertMRU(40, false) // evicts 10
	if st.find(10) != -1 {
		t.Fatal("LRU entry not evicted on overflow")
	}
	if st.size() != 3 {
		t.Fatalf("size after overflow = %d", st.size())
	}
	// Touch 20 (now LRU) to MRU.
	d := st.find(20)
	st.touch(d)
	if st.find(20) != 0 {
		t.Fatal("touch did not promote to MRU")
	}
	// Remove the middle entry.
	d = st.find(40)
	st.remove(d)
	if st.find(40) != -1 || st.size() != 2 {
		t.Fatal("remove failed")
	}
}

func TestShadowSetCleanToDirtyMigration(t *testing.T) {
	sh := newShadowSet(4)
	ch := make([]uint64, 4)
	dh := make([]uint64, 4)
	sh.access(100, true, ch, dh) // read miss → clean stack
	if sh.clean.find(100) != 0 {
		t.Fatal("read miss not inserted clean")
	}
	sh.access(100, false, ch, dh) // write → migrates to dirty
	if sh.clean.find(100) != -1 || sh.dirty.find(100) != 0 {
		t.Fatal("write did not migrate line to dirty stack")
	}
	sh.access(100, true, ch, dh) // read hit in dirty at distance 0
	if dh[0] != 1 {
		t.Fatalf("dirty read hit not counted: %v", dh)
	}
	if ch[0] != 0 {
		t.Fatalf("clean histogram polluted: %v", ch)
	}
}

func TestShadowSetReadDistances(t *testing.T) {
	sh := newShadowSet(4)
	ch := make([]uint64, 4)
	dh := make([]uint64, 4)
	// Insert 3 clean lines: 1 (LRU-most), 2, 3 (MRU).
	sh.access(1, true, ch, dh)
	sh.access(2, true, ch, dh)
	sh.access(3, true, ch, dh)
	// Reading 1 hits at distance 2.
	sh.access(1, true, ch, dh)
	if ch[2] != 1 {
		t.Fatalf("distance-2 hit not counted: %v", ch)
	}
	// 1 is now MRU; reading it again hits at distance 0.
	sh.access(1, true, ch, dh)
	if ch[0] != 1 {
		t.Fatalf("distance-0 hit not counted: %v", ch)
	}
}

func TestSamplerSetCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplerSets = 32
	c, p := newRWPCache(t, 2*1024*1024, 16, cfg) // 2048 sets
	_ = c
	if got := p.SamplerSetCount(); got != 32 {
		t.Fatalf("sampler sets = %d, want 32", got)
	}
	// More samplers than sets: clamped.
	cfg.SamplerSets = 1024
	_, p2 := newRWPCache(t, 64*4*8, 4, cfg) // 8 sets
	if got := p2.SamplerSetCount(); got != 8 {
		t.Fatalf("clamped sampler sets = %d, want 8", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, int) {
		cfg := smallCfg()
		c, p := newRWPCache(t, 8192, 4, cfg)
		for i := 0; i < 30000; i++ {
			line := mem.LineAddr(i * 17 % 777)
			class := cache.Class(i % 3)
			c.Access(line, mem.Addr(i), class, 0)
		}
		return c.Stats().ReadMisses(), p.TargetDirty()
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", m1, t1, m2, t2)
	}
}

func TestHistogramsAccessorCopies(t *testing.T) {
	_, p := newRWPCache(t, 8192, 4, smallCfg())
	ch, dh := p.Histograms()
	ch[0] = 999
	dh[0] = 999
	ch2, dh2 := p.Histograms()
	if ch2[0] == 999 || dh2[0] == 999 {
		t.Fatal("Histograms returned internal state, not copies")
	}
}
