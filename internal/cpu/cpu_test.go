package cpu

import "testing"

func mustNew(t *testing.T, cfg Config) *Core {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for i, bad := range []Config{
		{Width: 0, Window: 128, MSHRs: 16, StoreBuffer: 32},
		{Width: 4, Window: 0, MSHRs: 16, StoreBuffer: 32},
		{Width: 4, Window: 128, MSHRs: 0, StoreBuffer: 32},
		{Width: 4, Window: 128, MSHRs: 16, StoreBuffer: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestIdealIPCWithoutMemory(t *testing.T) {
	c := mustNew(t, Config{Width: 4, Window: 128, MSHRs: 16, StoreBuffer: 32})
	st := c.Finish(4000)
	if st.Cycles != 1000 {
		t.Fatalf("4000 instructions at width 4 took %d cycles, want 1000", st.Cycles)
	}
	if ipc := st.IPC(); ipc != 4.0 {
		t.Fatalf("IPC = %v, want 4", ipc)
	}
}

func TestShortLoadsAreHidden(t *testing.T) {
	// L1-hit loads (3 cycles) spaced out never stall a 128-entry window.
	c := mustNew(t, DefaultConfig())
	for ic := uint64(10); ic <= 4000; ic += 10 {
		c.Load(ic, 3)
	}
	st := c.Finish(4100)
	if st.LoadStalls != 0 {
		t.Fatalf("short loads caused %d stall cycles", st.LoadStalls)
	}
	if st.Cycles > 4100/4+10 {
		t.Fatalf("cycles = %d; short loads should be fully hidden", st.Cycles)
	}
}

func TestLongLoadMissStallsWindow(t *testing.T) {
	// A single 200-cycle miss with little work behind it costs ~the full
	// latency minus the window's worth of issue.
	c := mustNew(t, Config{Width: 4, Window: 128, MSHRs: 16, StoreBuffer: 32})
	c.Load(100, 200)
	st := c.Finish(10_000)
	// Without the miss: 2500 cycles. The window covers 128 instructions
	// = 32 cycles of issue, so the stall is roughly 200-32.
	if st.Cycles < 2600 || st.Cycles > 2750 {
		t.Fatalf("cycles = %d, want ~2500+170", st.Cycles)
	}
	if st.LoadStalls == 0 {
		t.Fatal("no load stalls recorded")
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// Two independent misses close together should overlap: total cost
	// far below 2× latency.
	solo := mustNew(t, DefaultConfig())
	solo.Load(100, 200)
	cyclesSolo := solo.Finish(200).Cycles

	pair := mustNew(t, DefaultConfig())
	pair.Load(100, 200)
	pair.Load(101, 200)
	cyclesPair := pair.Finish(200).Cycles

	if cyclesPair > cyclesSolo+20 {
		t.Fatalf("two overlapping misses cost %d vs %d for one; no MLP", cyclesPair, cyclesSolo)
	}
}

func TestMSHRLimitSerializesMisses(t *testing.T) {
	// With 1 MSHR, back-to-back misses serialize: ~2× latency.
	c := mustNew(t, Config{Width: 4, Window: 128, MSHRs: 1, StoreBuffer: 32})
	c.Load(10, 200)
	c.Load(11, 200)
	st := c.Finish(100)
	if st.Cycles < 390 {
		t.Fatalf("cycles = %d; 1-MSHR misses must serialize (~400)", st.Cycles)
	}
}

func TestStoresAreBuffered(t *testing.T) {
	// A burst of store misses within buffer capacity costs ~nothing.
	c := mustNew(t, Config{Width: 4, Window: 128, MSHRs: 16, StoreBuffer: 32})
	for i := 0; i < 32; i++ {
		c.Store(uint64(10+i), 200)
	}
	st := c.Finish(1000)
	if st.StoreStalls != 0 {
		t.Fatalf("buffered stores caused %d stall cycles", st.StoreStalls)
	}
	if st.Cycles > 1000/4+250 {
		t.Fatalf("cycles = %d; stores should be off the critical path", st.Cycles)
	}
}

func TestStoreBufferOverflowStalls(t *testing.T) {
	c := mustNew(t, Config{Width: 4, Window: 128, MSHRs: 16, StoreBuffer: 4})
	for i := 0; i < 64; i++ {
		c.Store(uint64(10+i), 200)
	}
	st := c.Finish(100)
	if st.StoreStalls == 0 {
		t.Fatal("store-buffer overflow produced no stalls")
	}
}

func TestReadVsWriteCriticalityAsymmetry(t *testing.T) {
	// The paper's Figure-2 mechanism in miniature: N long-latency loads
	// cost far more than N long-latency stores.
	const n = 200
	loads := mustNew(t, DefaultConfig())
	for i := 0; i < n; i++ {
		loads.Load(uint64(i*50+10), 200)
	}
	loadCycles := loads.Finish(n * 50).Cycles

	stores := mustNew(t, DefaultConfig())
	for i := 0; i < n; i++ {
		stores.Store(uint64(i*50+10), 200)
	}
	storeCycles := stores.Finish(n * 50).Cycles

	if float64(loadCycles) < 1.5*float64(storeCycles) {
		t.Fatalf("loads %d cycles vs stores %d: asymmetry too weak", loadCycles, storeCycles)
	}
}

func TestICRegressionIsIgnored(t *testing.T) {
	// advanceTo with a target behind the issue point must be a no-op.
	c := mustNew(t, DefaultConfig())
	c.Load(100, 3)
	c.Load(50, 3) // out-of-order IC: tolerated, no time travel
	st := c.Finish(200)
	if st.Cycles == 0 {
		t.Fatal("no cycles recorded")
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	c.Load(10, 3)
	c.Store(20, 3)
	st := c.Stats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Fatalf("snapshot = %+v", st)
	}
	if (Stats{}).IPC() != 0 {
		t.Fatal("IPC of idle core must be 0")
	}
}
