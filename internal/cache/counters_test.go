package cache

import (
	"testing"
	"testing/quick"

	"rwp/internal/mem"
)

// recount computes valid/dirty counts from scratch for comparison with
// the incrementally maintained counters.
func recount(c *Cache, set int) (valid, dirty int) {
	for w := 0; w < c.Ways(); w++ {
		ls := c.State(set, w)
		if !ls.Valid {
			continue
		}
		valid++
		if ls.Dirty {
			dirty++
		}
	}
	return valid, dirty
}

func TestIncrementalCountersMatchRecountQuick(t *testing.T) {
	// Property: after any access/invalidate sequence, the O(1) counters
	// agree with a full rescan in every set, for both store semantics.
	f := func(ops []uint16, storeFillsClean bool) bool {
		cfg := Config{Name: "t", SizeBytes: 2048, Ways: 4, LineSize: 64,
			StoreFillsClean: storeFillsClean}
		c, err := New(cfg, &fifoPolicy{})
		if err != nil {
			return false
		}
		for _, op := range ops {
			line := mem.LineAddr(op % 256)
			switch op % 5 {
			case 4:
				if set, way, ok := c.Lookup(line); ok {
					c.Invalidate(set, way)
				}
			default:
				c.Access(line, mem.Addr(op), Class(op%3), 0)
			}
		}
		for s := 0; s < c.NumSets(); s++ {
			v, d := recount(c, s)
			if c.ValidWays(s) != v || c.DirtyWays(s) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreFillsCleanSemantics(t *testing.T) {
	cfg := Config{Name: "llc", SizeBytes: 64 * 2, Ways: 2, LineSize: 64, StoreFillsClean: true, CarryWritebackPC: true}
	c, err := New(cfg, &fifoPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Demand-store miss fills clean.
	c.Access(1, 0x10, DemandStore, 0)
	set, way, ok := c.Lookup(1)
	if !ok || c.State(set, way).Dirty {
		t.Fatal("RFO fill must be clean under StoreFillsClean")
	}
	// Demand-store hit does not dirty either.
	c.Access(1, 0x20, DemandStore, 0)
	if c.State(set, way).Dirty {
		t.Fatal("store hit dirtied an RFO line under StoreFillsClean")
	}
	// The eventual writeback does dirty it.
	c.Access(1, 0x30, Writeback, 0)
	if !c.State(set, way).Dirty {
		t.Fatal("writeback did not dirty the line")
	}
	if c.DirtyWays(set) != 1 {
		t.Fatalf("dirty count %d", c.DirtyWays(set))
	}
	// Its eviction carries the writeback's PC, not the RFO's.
	c.Access(2, 0x40, DemandLoad, 0)
	res := c.Access(3, 0x50, DemandLoad, 0) // FIFO: evicts line 1
	if !res.Writeback || res.WritebackLine != 1 || res.WritebackPC != 0x30 {
		t.Fatalf("eviction of line 1 = %+v, want a writeback of line 1 with PC 0x30", res)
	}
}

func TestFirstLevelSemanticsUnchanged(t *testing.T) {
	// Default (StoreFillsClean=false): stores dirty immediately.
	c, err := New(Config{Name: "l1", SizeBytes: 64 * 2, Ways: 2, LineSize: 64}, &fifoPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(1, 0x10, DemandStore, 0)
	set, way, _ := c.Lookup(1)
	if !c.State(set, way).Dirty {
		t.Fatal("store fill must be dirty at the first level")
	}
}
