package hier

import (
	"runtime"
	"testing"

	"rwp/internal/cache"
	"rwp/internal/mem"
	"rwp/internal/policy"

	// Register the non-baseline policies in the shared registry.
	_ "rwp/internal/core"
	_ "rwp/internal/rrp"
	_ "rwp/internal/ucp"
)

func mustNew(t *testing.T, cfg Config) *Hierarchy {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	bad = DefaultConfig()
	bad.L1.LineSize = 32
	if err := bad.Validate(); err == nil {
		t.Error("mismatched line sizes accepted")
	}
	bad = DefaultConfig()
	bad.LLCPolicy = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty policy accepted")
	}
	bad = DefaultConfig()
	bad.LLCPolicy = "no-such-policy"
	if _, err := New(bad); err == nil {
		t.Error("unknown policy accepted by New")
	}
}

func TestLatenciesByHitLevel(t *testing.T) {
	h := mustNew(t, DefaultConfig())
	addr := mem.Addr(0x10000)

	// Cold: miss everywhere → DRAM latency dominates.
	lat := h.Load(0, 0, addr, 0x400)
	if lat < h.Config().DRAM.Latency {
		t.Fatalf("cold load latency %d < DRAM latency", lat)
	}
	// Now resident in L1.
	if lat := h.Load(0, 1000, addr, 0x400); lat != h.Config().L1Lat {
		t.Fatalf("L1 hit latency %d, want %d", lat, h.Config().L1Lat)
	}
}

func TestL2HitLatency(t *testing.T) {
	cfg := DefaultConfig()
	h := mustNew(t, cfg)
	// Fill line, then evict it from L1 only by touching many same-set
	// lines (L1 is 64 sets 8 ways; lines 64 apart share an L1 set).
	base := mem.Addr(0)
	h.Load(0, 0, base, 0x400)
	for i := 1; i <= 8; i++ {
		h.Load(0, uint64(i*1000), base+mem.Addr(i*64*64), 0x400)
	}
	lat := h.Load(0, 100000, base, 0x400)
	want := cfg.L1Lat + cfg.L2Lat
	if lat != want {
		t.Fatalf("L2 hit latency %d, want %d", lat, want)
	}
}

func TestLLCSeesOnlyPrivateMisses(t *testing.T) {
	h := mustNew(t, DefaultConfig())
	addr := mem.Addr(0x40)
	for i := 0; i < 100; i++ {
		h.Load(0, uint64(i*10), addr, 0x400)
	}
	// One cold miss reached the LLC; 99 L1 hits did not.
	if got := h.LLC().Stats().Accesses[cache.DemandLoad]; got != 1 {
		t.Fatalf("LLC saw %d demand loads, want 1", got)
	}
	if got := h.L1(0).Stats().Hits[cache.DemandLoad]; got != 99 {
		t.Fatalf("L1 hits = %d, want 99", got)
	}
}

func TestDirtyDataReachesDRAMExactlyOnce(t *testing.T) {
	// Write a line, then force it down every level; the write must reach
	// DRAM exactly once (one writeback), not be lost and not duplicated.
	cfg := DefaultConfig()
	cfg.L1.SizeBytes = 64 * 8 // 1 set, 8 ways
	cfg.L2.SizeBytes = 64 * 8
	cfg.LLC.SizeBytes = 64 * 16
	h := mustNew(t, cfg)

	h.Store(0, 0, 0, 0x500) // dirty line 0
	// Evict through all levels with a long stream of loads.
	for i := 1; i <= 64; i++ {
		h.Load(0, uint64(i*1000), mem.Addr(i*64), 0x400)
	}
	if got := h.DRAM().Stats().Writes; got != 1 {
		t.Fatalf("DRAM writes = %d, want exactly 1", got)
	}
}

// pcSpy is an LLC policy that records the PC of every writeback access
// it is shown, then defers to the wrapped policy.
type pcSpy struct {
	cache.Policy
	wbPCs map[mem.LineAddr][]mem.Addr
}

func (p *pcSpy) record(ai cache.AccessInfo) {
	if ai.Class == cache.Writeback {
		p.wbPCs[ai.Line] = append(p.wbPCs[ai.Line], ai.PC)
	}
}

func (p *pcSpy) OnHit(set, way int, ai cache.AccessInfo) {
	p.record(ai)
	p.Policy.OnHit(set, way, ai)
}

func (p *pcSpy) Victim(set int, ai cache.AccessInfo) (int, bool) {
	p.record(ai)
	return p.Policy.Victim(set, ai)
}

func TestWritebackCarriesStorePC(t *testing.T) {
	// The LLC policy must see writebacks with the PC of the dirtying
	// store, although no level stores it past the L2.
	cfg := DefaultConfig()
	cfg.L1.SizeBytes = 64 * 8
	cfg.L2.SizeBytes = 64 * 8
	cfg.LLCPolicy = "rrp" // PC-consuming policy must not break
	h := mustNew(t, cfg)
	rrp, err := policy.New(cfg.LLCPolicy)
	if err != nil {
		t.Fatal(err)
	}
	spy := &pcSpy{Policy: rrp, wbPCs: map[mem.LineAddr][]mem.Addr{}}
	if h.llc, err = cache.New(h.cfg.LLC, spy); err != nil {
		t.Fatal(err)
	}
	h.Store(0, 0, 0, 0xabc0)
	for i := 1; i <= 32; i++ {
		h.Load(0, uint64(i*1000), mem.Addr(i*64), 0x400)
	}
	// The dirty line was written back into the LLC.
	if got := h.LLC().Stats().Accesses[cache.Writeback]; got == 0 {
		t.Fatal("LLC saw no writebacks")
	}
	pcs := spy.wbPCs[0]
	if len(pcs) == 0 {
		t.Fatalf("LLC policy saw no writeback of line 0 (writebacks of %d lines)", len(spy.wbPCs))
	}
	for _, pc := range pcs {
		if pc != 0xabc0 {
			t.Fatalf("LLC policy saw line 0 written back with PC %#x, want 0xabc0 (the dirtying store)", uint64(pc))
		}
	}
}

func TestWritebacksAreNotCritical(t *testing.T) {
	// A store's completion latency must not include downstream writeback
	// handling beyond buffering.
	cfg := DefaultConfig()
	h := mustNew(t, cfg)
	lat := h.Store(0, 0, 0x1000, 0x500)
	if lat < cfg.DRAM.Latency {
		t.Fatalf("cold store (write-allocate) latency %d; expected a fill", lat)
	}
	// Store hit is L1-fast.
	if lat := h.Store(0, 1000, 0x1000, 0x500); lat != cfg.L1Lat {
		t.Fatalf("store hit latency %d, want %d", lat, cfg.L1Lat)
	}
}

func TestMulticorePrivacy(t *testing.T) {
	h := mustNew(t, MulticoreConfig(2))
	h.Load(0, 0, 0x40, 0x400)
	// Core 1's private caches must not contain core 0's line.
	if _, _, ok := h.L1(1).Lookup(mem.Addr(0x40).DefaultLine()); ok {
		t.Fatal("core 1 L1 contains core 0's fill")
	}
	// But the shared LLC does.
	if _, _, ok := h.LLC().Lookup(mem.Addr(0x40).DefaultLine()); !ok {
		t.Fatal("shared LLC missing the fill")
	}
	// Core 1 loading the same line hits in LLC (cheaper than DRAM).
	lat := h.Load(1, 1000, 0x40, 0x400)
	want := h.Config().L1Lat + h.Config().L2Lat + h.Config().LLCLat
	if lat != want {
		t.Fatalf("cross-core LLC hit latency %d, want %d", lat, want)
	}
}

func TestEveryPolicyRunsInHierarchy(t *testing.T) {
	for _, pol := range []string{"lru", "dip", "drrip", "ship", "rwp", "rrp", "ucp"} {
		cfg := DefaultConfig()
		cfg.LLC.SizeBytes = 64 << 10 // small for speed
		cfg.LLCPolicy = pol
		h := mustNew(t, cfg)
		for i := 0; i < 50000; i++ {
			a := mem.Addr(i*64*7) % (1 << 22)
			if i%3 == 0 {
				h.Store(0, uint64(i*4), a, 0x500)
			} else {
				h.Load(0, uint64(i*4), a, 0x400)
			}
		}
		llc := h.LLC().Stats()
		if llc.TotalAccesses() == 0 {
			t.Errorf("%s: LLC never accessed", pol)
		}
		for cl := 0; cl < 3; cl++ {
			if llc.Hits[cl]+llc.Misses[cl] != llc.Accesses[cl] {
				t.Errorf("%s: class %d stats inconsistent", pol, cl)
			}
		}
	}
}

// TestHierarchyFootprint pins what building one simulated job's memory
// system allocates. A way keeps its tag and flags (9 B), plus the
// dirtying PC (8 B) only in the private levels, whose dirty victims
// carry it to the LLC; UCP keeps its owner cores itself. At the default
// geometry under lru that is 422 792 B; with a PC and an owner core in
// every way of every level it was 834 440 B.
func TestHierarchyFootprint(t *testing.T) {
	const limit = 430_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := New(DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(h)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("New(DefaultConfig()) allocated %d B", allocated)
	if allocated > limit {
		t.Errorf("New(DefaultConfig()) allocated %d B, want at most %d", allocated, limit)
	}
}
