package core

import (
	"testing"
	"testing/quick"

	"rwp/internal/cache"
	"rwp/internal/mem"
	"rwp/internal/probe"
)

func TestWrittenFlagsMatchCountsQuick(t *testing.T) {
	// Property: writtenCount[set] always equals the number of set's
	// written flags, and written lines are a subset of valid lines.
	f := func(ops []uint16) bool {
		cfg := DefaultConfig()
		cfg.Interval = 500
		cfg.SamplerSets = 2
		p := New(cfg)
		c, err := cache.New(cache.Config{Name: "llc", SizeBytes: 2048, Ways: 4,
			LineSize: 64, StoreFillsClean: true}, p)
		if err != nil {
			return false
		}
		for _, op := range ops {
			line := mem.LineAddr(op % 256)
			c.Access(line, mem.Addr(op), cache.Class(op%3), 0)
		}
		ways := c.Ways()
		for s := 0; s < c.NumSets(); s++ {
			n := 0
			for w := 0; w < ways; w++ {
				if p.written[s*ways+w] {
					n++
					if !c.State(s, w).Valid {
						return false // written flag on an invalid way
					}
				}
			}
			if n != int(p.writtenCount[s]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestWrittenLeadsDirtyBitUnderRFO(t *testing.T) {
	// Under lower-level semantics, an RFO fill is clean in the tag store
	// but must already count against the dirty partition.
	cfg := DefaultConfig()
	cfg.Interval = 1 << 62
	cfg.InitialDirtyTarget = 2
	p := New(cfg)
	c, err := cache.New(cache.Config{Name: "llc", SizeBytes: 64 * 4, Ways: 4,
		LineSize: 64, StoreFillsClean: true}, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(1, 0x10, cache.DemandStore, 0)
	set, way, _ := c.Lookup(1)
	if c.State(set, way).Dirty {
		t.Fatal("RFO fill dirtied the tag store")
	}
	if p.writtenCount[set] != 1 {
		t.Fatalf("written count %d; RFO fill must join the dirty partition", p.writtenCount[set])
	}
}

func TestRetargetsFireOnlyAtIntervals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interval = 1000
	cfg.SamplerSets = 2
	p := New(cfg)
	rec := probe.NewRecorder(0)
	p.SetProbe(rec)
	c, err := cache.New(cache.Config{Name: "llc", SizeBytes: 8192, Ways: 4, LineSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5500; i++ {
		c.Access(mem.LineAddr(i%300), 0, cache.DemandLoad, 0)
	}
	if got := len(rec.Retargets); got != 5 {
		t.Fatalf("%d retarget events after 5.5 intervals, want 5", got)
	}
}

func TestDecayHalvesHistograms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interval = 100
	cfg.SamplerSets = 1
	cfg.DecayShift = 1
	p := New(cfg)
	_, err := cache.New(cache.Config{Name: "llc", SizeBytes: 64 * 4, Ways: 4, LineSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	p.cleanHist[0] = 100
	p.dirtyHist[3] = 7
	p.repartition()
	ch, dh := p.Histograms()
	if ch[0] != 50 || dh[3] != 3 {
		t.Fatalf("decay wrong: clean[0]=%d dirty[3]=%d", ch[0], dh[3])
	}
}
