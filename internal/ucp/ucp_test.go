package ucp

import (
	"testing"
	"testing/quick"

	"rwp/internal/cache"
	"rwp/internal/hier"
	"rwp/internal/mem"
	"rwp/internal/policy"
	"rwp/internal/xrand"
)

func newUCPCache(t *testing.T, sizeBytes, ways int, cfg Config) (*cache.Cache, *UCP) {
	t.Helper()
	p := New(cfg)
	c, err := cache.New(cache.Config{Name: "llc", SizeBytes: sizeBytes, Ways: ways, LineSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Fatal(err)
	}
	for i, bad := range []Config{
		{Cores: 0, SamplerSets: 32, Interval: 1},
		{Cores: 4, SamplerSets: 0, Interval: 1},
		{Cores: 4, SamplerSets: 32, Interval: 0},
		{Cores: 255, SamplerSets: 32, Interval: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRegistered(t *testing.T) {
	p, err := policy.New("ucp")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "ucp" {
		t.Fatalf("Name() = %q", p.Name())
	}
}

func TestPartitionProperties(t *testing.T) {
	// Property: allocations sum to ways; every core gets >= 1 when
	// ways >= cores; allocations are non-negative.
	f := func(h1, h2, h3, h4 [16]uint8) bool {
		hits := [][]uint64{make([]uint64, 16), make([]uint64, 16), make([]uint64, 16), make([]uint64, 16)}
		for d := 0; d < 16; d++ {
			hits[0][d] = uint64(h1[d])
			hits[1][d] = uint64(h2[d])
			hits[2][d] = uint64(h3[d])
			hits[3][d] = uint64(h4[d])
		}
		alloc := Partition(hits, 16)
		sum := 0
		for _, a := range alloc {
			if a < 1 {
				return false
			}
			sum += a
		}
		return sum == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionFavorsHighUtility(t *testing.T) {
	// Core 0 has a steep utility curve; core 1 has none. Core 0 should
	// receive nearly everything beyond the 1-way minimum.
	hits := [][]uint64{
		{100, 100, 100, 100, 100, 100, 100, 0},
		{0, 0, 0, 0, 0, 0, 0, 0},
	}
	alloc := Partition(hits, 8)
	if alloc[0] < 7 {
		t.Fatalf("high-utility core got %d of 8 ways", alloc[0])
	}
	if alloc[1] < 1 {
		t.Fatal("minimum allocation violated")
	}
}

func TestPartitionMoreCoresThanWays(t *testing.T) {
	hits := [][]uint64{{1}, {1}, {1}, {1}}
	alloc := Partition(hits, 2)
	sum := 0
	for _, a := range alloc {
		sum += a
	}
	if sum != 2 {
		t.Fatalf("allocations sum to %d, want 2", sum)
	}
}

func TestUCPProtectsCacheSensitiveCore(t *testing.T) {
	// Core 0 reuses a set that fits in ~3/4 of the cache; core 1 streams.
	// Under LRU the stream steals half the space; UCP should contain it
	// and give core 0 fewer misses than LRU does.
	run := func(p cache.Policy) uint64 {
		c, err := cache.New(cache.Config{Name: "llc", SizeBytes: 16384, Ways: 8, LineSize: 64}, p)
		if err != nil {
			t.Fatal(err)
		}
		stream := mem.LineAddr(1 << 20)
		for i := 0; i < 300000; i++ {
			c.Access(mem.LineAddr(i%192), 0x10, cache.DemandLoad, 0) // 192 of 256 lines
			c.Access(stream, 0x20, cache.DemandLoad, 1)
			stream++
		}
		return c.Stats().ReadMisses()
	}
	cfg := DefaultConfig(2)
	cfg.Interval = 5000
	cfg.SamplerSets = 8
	ucpMisses := run(New(cfg))
	lru, err := policy.New("lru")
	if err != nil {
		t.Fatal(err)
	}
	lruMisses := run(lru)
	if ucpMisses >= lruMisses {
		t.Fatalf("UCP read misses %d >= LRU %d", ucpMisses, lruMisses)
	}
}

func TestAllocationsTrackUtility(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Interval = 2000
	cfg.SamplerSets = 8
	c, p := newUCPCache(t, 16384, 8, cfg)
	stream := mem.LineAddr(1 << 20)
	for i := 0; i < 100000; i++ {
		c.Access(mem.LineAddr(i%192), 0x10, cache.DemandLoad, 0)
		c.Access(stream, 0x20, cache.DemandLoad, 1)
		stream++
	}
	alloc := p.Allocations()
	if alloc[0] <= alloc[1] {
		t.Fatalf("reuse core allocation %d <= stream core %d", alloc[0], alloc[1])
	}
	if len(p.History()) == 0 {
		t.Fatal("no repartition history recorded")
	}
}

func TestUmonStack(t *testing.T) {
	st := umonStack{cap: 3}
	if d := st.access(1); d != -1 {
		t.Fatalf("cold access distance %d", d)
	}
	st.access(2)
	st.access(3)
	if d := st.access(1); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
	if d := st.access(1); d != 0 {
		t.Fatalf("repeat distance = %d, want 0", d)
	}
	st.access(4) // evicts LRU (2? order: 1,3,2 → evict 2)
	if d := st.access(2); d != -1 {
		t.Fatalf("evicted line hit at %d", d)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		cfg := DefaultConfig(2)
		cfg.Interval = 1000
		cfg.SamplerSets = 4
		c, _ := newUCPCache(t, 8192, 4, cfg)
		for i := 0; i < 30000; i++ {
			c.Access(mem.LineAddr(i*13%999), mem.Addr(i), cache.Class(i%3), i%2)
		}
		return c.Stats().ReadMisses()
	}
	if run() != run() {
		t.Fatal("non-deterministic UCP run")
	}
}

// TestVictimDoesNotAllocate: choosing a victim in a full set — the
// work of every miss in a ucp run — allocates nothing.
func TestVictimDoesNotAllocate(t *testing.T) {
	c, p := newUCPCache(t, 4*16*64, 16, DefaultConfig(4))
	for i := 0; i < 64; i++ {
		c.Access(mem.LineAddr(i), 0x10, cache.DemandLoad, i%4)
	}
	if v := c.ValidWays(0); v != 16 {
		t.Fatalf("set 0 holds %d lines, want 16", v)
	}
	ai := cache.AccessInfo{Line: 1 << 20, Class: cache.DemandLoad, Core: 1}
	if allocs := int(testing.AllocsPerRun(100, func() { p.Victim(0, ai) })); allocs != 0 {
		t.Fatalf("Victim on a full set: %d allocs, want 0", allocs)
	}
}

// ownerRef is a UCP that keeps its own record of the owner rule beside
// the policy's: a way belongs to the core of its fill or of its last
// Writeback hit, and to no other hit's core.
type ownerRef struct {
	*UCP
	want []int // per way, row-major by set

	fills, wbHits, wbMoves, storeHitsForeign uint64
	fillCores                                map[int]bool
}

func (r *ownerRef) OnHit(set, way int, ai cache.AccessInfo) {
	r.UCP.OnHit(set, way, ai)
	i := set*r.r.Ways() + way
	switch {
	case ai.Class == cache.Writeback:
		r.wbHits++
		if r.want[i] != ai.Core {
			r.wbMoves++
		}
		r.want[i] = ai.Core
	case ai.Class == cache.DemandStore && r.want[i] != ai.Core:
		r.storeHitsForeign++
	}
}

func (r *ownerRef) OnFill(set, way int, ai cache.AccessInfo) {
	r.UCP.OnFill(set, way, ai)
	r.want[set*r.r.Ways()+way] = ai.Core
	r.fills++
	r.fillCores[ai.Core] = true
}

func init() {
	policy.Register("ucp-owner-ref", func() cache.Policy {
		return &ownerRef{UCP: New(DefaultConfig(4)), fillCores: map[int]bool{}}
	})
}

// TestUCPOwnerRule drives a seeded 4-core stream, private and shared
// lines, loads and stores, through a small hierarchy built by hier.New
// (so the LLC sees RFO stores and writebacks as a real run does) and
// holds UCP's owner of every valid LLC way to the reference's.
func TestUCPOwnerRule(t *testing.T) {
	cfg := hier.MulticoreConfig(4)
	cfg.L1.SizeBytes = 2 * 8 * 64
	cfg.L2.SizeBytes = 4 * 8 * 64
	cfg.LLC.SizeBytes = 8 * 16 * 64
	cfg.LLCPolicy = "ucp-owner-ref"
	h, err := hier.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := h.LLC()
	ref := llc.Policy().(*ownerRef)
	ref.want = make([]int, llc.NumSets()*llc.Ways())
	check := func(op int) {
		t.Helper()
		for set := 0; set < llc.NumSets(); set++ {
			for way := 0; way < llc.Ways(); way++ {
				i := set*llc.Ways() + way
				if llc.State(set, way).Valid && int(ref.owner[i]) != ref.want[i] {
					t.Fatalf("op %d: set %d way %d owned by core %d, reference %d", op, set, way, ref.owner[i], ref.want[i])
				}
			}
		}
	}
	rng := xrand.New(39)
	now := uint64(0)
	for op := 0; op < 40_000; op++ {
		core := rng.Intn(4)
		line := 1024*(core+1) + rng.Intn(160) // private
		if rng.Intn(3) == 0 {
			line = rng.Intn(96) // shared by every core
		}
		addr, pc := mem.Addr(line*64), mem.Addr(0x400000+4*rng.Intn(32))
		if rng.Intn(3) == 0 {
			now += h.Store(core, now, addr, pc)
		} else {
			now += h.Load(core, now, addr, pc)
		}
		if op%97 == 0 {
			check(op)
		}
	}
	check(40_000)
	if ref.fills == 0 || len(ref.fillCores) != 4 || ref.wbMoves == 0 || ref.storeHitsForeign == 0 {
		t.Fatalf("stream exercised too little: %d fills by %d cores, %d writeback hits (%d moving the owner), %d store hits by a non-owner",
			ref.fills, len(ref.fillCores), ref.wbHits, ref.wbMoves, ref.storeHitsForeign)
	}
	t.Logf("%d fills, %d writeback hits (%d moving the owner), %d store hits by a non-owner", ref.fills, ref.wbHits, ref.wbMoves, ref.storeHitsForeign)
}
