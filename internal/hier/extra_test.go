package hier

import (
	"testing"

	"rwp/internal/cache"
	"rwp/internal/mem"
)

func TestValidateMoreErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.L1.Ways = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid L1 accepted")
	}
	bad = DefaultConfig()
	bad.L1Lat = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero latency accepted")
	}
	bad = DefaultConfig()
	bad.DRAM.Latency = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid DRAM accepted")
	}
	if _, err := New(bad); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestLineShift(t *testing.T) {
	h := mustNew(t, DefaultConfig())
	if h.LineShift() != 6 {
		t.Fatalf("LineShift = %d, want 6 (64 B lines)", h.LineShift())
	}
}

func TestBypassedWritebackReachesDRAM(t *testing.T) {
	// Under RRP with a trained write-only PC, LLC-bypassed writebacks
	// must still land in DRAM (write-through on bypass).
	cfg := DefaultConfig()
	cfg.L1.SizeBytes = 4 << 10
	cfg.L2.SizeBytes = 16 << 10
	cfg.LLC.SizeBytes = 1 << 20 // 1024 sets: training sets stay a minority
	cfg.LLCPolicy = "rrp"
	h := mustNew(t, cfg)
	for i := 0; i < 100_000; i++ {
		h.Store(0, uint64(i*4), mem.Addr(i)*64, 0xdead0)
	}
	llc := h.LLC().Stats()
	if llc.TotalBypasses() == 0 {
		t.Fatal("RRP never bypassed a write-only stream")
	}
	dram := h.DRAM().Stats()
	// All evicted dirty data must be accounted: writes = LLC dirty
	// evictions + bypassed writes.
	if dram.Writes == 0 {
		t.Fatal("no DRAM writes despite store stream")
	}
	if dram.Writes < llc.TotalBypasses()/2 {
		t.Fatalf("DRAM writes %d implausibly low for %d bypasses", dram.Writes, llc.TotalBypasses())
	}
}

func TestWritebackHitDoesNotRecurse(t *testing.T) {
	// A writeback that hits in L2 must not propagate to the LLC.
	cfg := DefaultConfig()
	cfg.L1.SizeBytes = 64 * 8 // 1 set
	h := mustNew(t, cfg)
	h.Store(0, 0, 0, 0x99) // line 0 dirty in L1, resident in L2
	// Evict from L1; L2 still holds the line → writeback hit at L2.
	for i := 1; i <= 8; i++ {
		h.Load(0, uint64(i*100), mem.Addr(i)*64*64, 0x10)
	}
	if got := h.L2(0).Stats().Hits[cache.Writeback]; got != 1 {
		t.Fatalf("L2 writeback hits = %d, want 1", got)
	}
	if got := h.LLC().Stats().Accesses[cache.Writeback]; got != 0 {
		t.Fatalf("LLC saw %d writebacks for an L2-resident line", got)
	}
}
