package loadgen_test

import (
	"reflect"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
)

// TestBatchEqualsNext: a Take batch is exactly n Next calls.
func TestBatchEqualsNext(t *testing.T) {
	g1, err := loadgen.New("mcf", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := loadgen.New("mcf", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	batch := loadgen.Take(g1, 500)
	for i := range batch {
		if want := g2.Next(); !reflect.DeepEqual(batch[i], want) {
			t.Fatalf("op %d: batch %+v, stream %+v", i, batch[i], want)
		}
	}
}

// TestRunsPartition: runs are same-kind, within the size cap, and
// concatenate back to the original stream.
func TestRunsPartition(t *testing.T) {
	g, err := loadgen.New("xalancbmk", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	ops := loadgen.Take(g, 2000)
	for _, max := range []int{0, 1, 7, 64} {
		runs := loadgen.Runs(ops, max)
		var flat []loadgen.Op
		for _, run := range runs {
			if len(run) == 0 {
				t.Fatalf("max=%d: empty run", max)
			}
			if max > 0 && len(run) > max {
				t.Fatalf("max=%d: run of %d ops", max, len(run))
			}
			for _, op := range run {
				if op.Put != run[0].Put {
					t.Fatalf("max=%d: mixed-kind run", max)
				}
			}
			flat = append(flat, run...)
		}
		if !reflect.DeepEqual(flat, ops) {
			t.Fatalf("max=%d: concatenated runs differ from the stream", max)
		}
	}
	// Unbounded runs must be maximal: adjacent runs alternate kind.
	runs := loadgen.Runs(ops, 0)
	for i := 1; i < len(runs); i++ {
		if runs[i][0].Put == runs[i-1][0].Put {
			t.Fatalf("runs %d and %d have the same kind (not maximal)", i-1, i)
		}
	}
	if got := loadgen.Runs(nil, 4); got != nil {
		t.Fatalf("Runs(nil) = %v", got)
	}
}

// TestApplyAllMatchesRun: replaying a batch gives the same cache state
// and hit count as the op-by-op loop.
func TestApplyAllMatchesRun(t *testing.T) {
	mk := func() *live.Cache {
		cfg := live.DefaultConfig()
		cfg.Sets, cfg.Ways, cfg.Shards = 64, 4, 4
		cfg.Loader = loadgen.Loader(8)
		c, err := live.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const n = 3000
	c1 := mk()
	g1, _ := loadgen.New("mcf", 0, 8)
	loadgen.Run(c1, g1, n)

	c2 := mk()
	g2, _ := loadgen.New("mcf", 0, 8)
	hits := loadgen.ApplyAll(c2, loadgen.Take(g2, n))

	s1, s2 := c1.Stats(), c2.Stats()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats diverge:\n%+v\n%+v", s1, s2)
	}
	if uint64(hits) != s2.GetHits {
		t.Fatalf("ApplyAll hits %d, stats GetHits %d", hits, s2.GetHits)
	}
}
