package cpu

import (
	"testing"
	"testing/quick"
)

func TestFinishBelowIssuedIsSafe(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	c.Load(1000, 3) // advances issue to 1000
	st := c.Finish(500)
	if st.Cycles == 0 {
		t.Fatal("no cycles after Finish")
	}
	if st.Instructions != 500 {
		t.Fatalf("Instructions = %d", st.Instructions)
	}
}

func TestCyclesMonotoneQuick(t *testing.T) {
	// Property: the core's clock never runs backwards under any access
	// pattern, and IPC never exceeds the issue width.
	f := func(ops []uint16) bool {
		c, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		ic := uint64(0)
		prev := uint64(0)
		for _, op := range ops {
			ic += uint64(op%7) + 1
			lat := uint64(op%400) + 1
			if op%3 == 0 {
				c.Store(ic, lat)
			} else {
				c.Load(ic, lat)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		st := c.Finish(ic + 1)
		if st.Cycles < prev {
			return false
		}
		return st.IPC() <= float64(DefaultConfig().Width)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowBoundsOutstandingWork(t *testing.T) {
	// With a tiny window, a single slow load gates everything: the run
	// takes at least the load latency.
	c := mustNew(t, Config{Width: 4, Window: 4, MSHRs: 16, StoreBuffer: 32})
	c.Load(10, 1000)
	st := c.Finish(100)
	if st.Cycles < 1000 {
		t.Fatalf("cycles = %d; tiny window should expose the full latency", st.Cycles)
	}
}

// drive pushes a fixed mix of loads and stores through c: short and
// DRAM-length latencies, bursts that fill the MSHRs, the store buffer
// and the reorder window.
func drive(c *Core, ic *uint64, steps int) {
	for i := 0; i < steps; i++ {
		*ic += uint64(1 + i%5)
		c.AdvanceTo(*ic)
		lat := uint64(3)
		if i%3 == 0 {
			lat = 200
		}
		switch {
		case i%128 >= 80: // a run of DRAM-length stores overruns the buffer
			c.Store(*ic, 200)
		case i%4 == 3:
			c.Store(*ic, lat)
		default:
			c.Load(*ic, lat)
		}
	}
}

// The core's queues are rings allocated at construction: steady-state
// simulation must not allocate. The `s = append(s, …)` growth that used
// to leak here allocates only now and then, so the count is taken over
// 10 k steps.
func TestStepsDoNotAllocate(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ic uint64
	if allocs := int(testing.AllocsPerRun(5, func() { drive(c, &ic, 10_000) })); allocs != 0 {
		t.Fatalf("%d allocs per 10k Load/Store/AdvanceTo steps, want 0", allocs)
	}
	if st := c.Stats(); st.LoadStalls == 0 || st.StoreStalls == 0 {
		t.Fatalf("stream never stalled, so the rings never filled: %+v", st)
	}
}

// The rings hold at most MSHRs loads and StoreBuffer stores whatever the
// stream does, wrap around many times without losing FIFO order (the
// stall totals of cpu_test.go's hand-computed cases pin the order), and
// Finish leaves them empty but usable.
func TestRingBoundsAndFinish(t *testing.T) {
	cfg := Config{Width: 2, Window: 16, MSHRs: 3, StoreBuffer: 2}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ic uint64
	for i := 0; i < 400; i++ {
		drive(c, &ic, 1+i%200) // stop at every phase of drive's pattern
		if c.loads.n > cfg.MSHRs || c.stores.n > cfg.StoreBuffer {
			t.Fatalf("step %d: %d loads / %d stores in flight, bounds %d / %d", i, c.loads.n, c.stores.n, cfg.MSHRs, cfg.StoreBuffer)
		}
	}
	st := c.Finish(ic + 1)
	if c.loads.n != 0 || c.stores.n != 0 {
		t.Fatalf("Finish left %d loads / %d stores queued", c.loads.n, c.stores.n)
	}
	if len(c.loads.buf) != cfg.MSHRs || len(c.stores.buf) != cfg.StoreBuffer {
		t.Fatalf("Finish dropped the ring buffers: %d / %d", len(c.loads.buf), len(c.stores.buf))
	}
	if st.Cycles < st.LoadStalls+st.StoreStalls {
		t.Fatalf("stalls exceed cycles: %+v", st)
	}
}
