package rrp

import (
	"testing"

	"rwp/internal/cache"
	"rwp/internal/mem"
	"rwp/internal/policy"
)

func newRRPCache(t *testing.T, sizeBytes, ways int, cfg Config) (*cache.Cache, *RRP) {
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
	cfg.TableBits = 10
	cfg.TrainSets = 4
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{TableBits: 0, CounterBits: 3, TrainSets: 1, BypassThreshold: 1},
		{TableBits: 14, CounterBits: 0, TrainSets: 1, BypassThreshold: 1},
		{TableBits: 14, CounterBits: 3, TrainSets: 0, BypassThreshold: 1},
		{TableBits: 14, CounterBits: 3, TrainSets: 1, BypassThreshold: 0},
		{TableBits: 14, CounterBits: 3, TrainSets: 1, BypassThreshold: 8},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRegisteredInPolicyRegistry(t *testing.T) {
	p, err := policy.New("rrp")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "rrp" {
		t.Fatalf("Name() = %q", p.Name())
	}
}

func TestLearnsToBypassWriteOnlyPC(t *testing.T) {
	c, p := newRRPCache(t, 8192, 4, smallCfg()) // 32 sets
	writePC := mem.Addr(0xdead0)
	// Stream write-once lines from one PC: never read again.
	line := mem.LineAddr(0)
	for i := 0; i < 20000; i++ {
		c.Access(line, writePC, cache.Writeback, 0)
		line++
	}
	if got := p.Counter(writePC); got != 0 {
		t.Fatalf("write-only PC counter = %d, want 0", got)
	}
	if p.BypassVerdicts() == 0 {
		t.Fatal("no bypasses for a write-only stream")
	}
	// The vast majority of non-training-set fills must have been bypassed.
	st := c.Stats()
	if st.Bypasses < st.Fills {
		t.Fatalf("bypasses %d < fills %d; predictor not engaging", st.Bypasses, st.Fills)
	}
}

func TestKeepsReadReusedLines(t *testing.T) {
	c, p := newRRPCache(t, 8192, 4, smallCfg())
	readPC := mem.Addr(0xbeef0)
	for rep := 0; rep < 500; rep++ {
		for i := 0; i < 96; i++ {
			c.Access(mem.LineAddr(i), readPC, cache.DemandLoad, 0)
		}
	}
	if got := p.Counter(readPC); got == 0 {
		t.Fatal("read-reused PC trained to bypass")
	}
	st := c.Stats()
	if st.Bypasses != 0 {
		t.Fatalf("read-reused stream suffered %d bypasses", st.Bypasses)
	}
	// After warmup the working set fits: hit ratio must be high.
	if st.Hits[cache.DemandLoad] < st.Accesses[cache.DemandLoad]*9/10 {
		t.Fatalf("hits %d of %d", st.Hits[cache.DemandLoad], st.Accesses[cache.DemandLoad])
	}
}

func TestTrainingSetsEnableRecovery(t *testing.T) {
	c, p := newRRPCache(t, 8192, 4, smallCfg())
	pc := mem.Addr(0x1230)
	// Phase 1: write-only behavior drives the counter to 0.
	line := mem.LineAddr(0)
	for i := 0; i < 20000; i++ {
		c.Access(line, pc, cache.Writeback, 0)
		line++
	}
	if p.Counter(pc) != 0 {
		t.Fatal("phase 1 did not train counter to 0")
	}
	// Phase 2: the same PC now writes lines that are read back. Training
	// sets keep allocating, so the counter must recover.
	for rep := 0; rep < 4000; rep++ {
		l := mem.LineAddr(1<<20 + rep%256)
		c.Access(l, pc, cache.Writeback, 0)
		c.Access(l, 0x9990, cache.DemandLoad, 0)
	}
	if p.Counter(pc) == 0 {
		t.Fatal("counter did not recover once lines became read-reused")
	}
}

func TestRRPBeatsLRUOnWriteOnceReadMany(t *testing.T) {
	// Same scenario as the RWP test: RRP should also protect the read
	// working set by bypassing the write-once stream.
	run := func(p cache.Policy) uint64 {
		c, err := cache.New(cache.Config{Name: "llc", SizeBytes: 16384, Ways: 8, LineSize: 64}, p)
		if err != nil {
			t.Fatal(err)
		}
		wr := mem.LineAddr(1 << 20)
		for i := 0; i < 200000; i++ {
			c.Access(mem.LineAddr(i%224), 0x40, cache.DemandLoad, 0)
			if i%2 == 0 {
				c.Access(wr, 0x80, cache.Writeback, 0)
				wr++
			}
		}
		return c.Stats().ReadMisses()
	}
	cfg := smallCfg()
	rrpMisses := run(New(cfg))
	lru, err := policy.New("lru")
	if err != nil {
		t.Fatal(err)
	}
	lruMisses := run(lru)
	if rrpMisses >= lruMisses {
		t.Fatalf("RRP read misses %d >= LRU %d", rrpMisses, lruMisses)
	}
}

func TestWritebackPCPlumbing(t *testing.T) {
	// The PC that dirtied a line must surface on its writeback.
	p, err := policy.New("lru")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Config{Name: "l2", SizeBytes: 64 * 2, Ways: 2, LineSize: 64, CarryWritebackPC: true}, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(1, 0x100, cache.DemandLoad, 0)  // fill clean, PC 0x100
	c.Access(1, 0x200, cache.DemandStore, 0) // dirty, PC 0x200
	c.Access(2, 0x300, cache.DemandLoad, 0)
	res := c.Access(3, 0x400, cache.DemandLoad, 0) // evicts line 1 (LRU)
	if !res.Writeback || res.WritebackLine != 1 {
		t.Fatalf("expected writeback of line 1, got %+v", res)
	}
	if res.WritebackPC != 0x200 {
		t.Fatalf("WritebackPC = %#x, want 0x200 (the dirtying store)", res.WritebackPC)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		c, p := newRRPCache(t, 8192, 4, smallCfg())
		for i := 0; i < 30000; i++ {
			c.Access(mem.LineAddr(i*13%999), mem.Addr(i%32)*4, cache.Class(i%3), 0)
		}
		return c.Stats().ReadMisses(), p.BypassVerdicts()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatal("non-deterministic RRP run")
	}
}
