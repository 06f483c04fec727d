package live

import (
	"strconv"
	"testing"
)

func rangeTestConfig() Config {
	return Config{
		Sets: 64, Ways: 4,
		Policy: "rwp", RWP: DefaultRWPConfig(),
	}
}

// fillRangeTest drives a deterministic mixed stream so every stats
// field is nonzero.
func fillRangeTest(c *Cache, ops int) {
	for i := 0; i < ops; i++ {
		key := "k" + strconv.Itoa(i%500)
		if i%3 == 0 {
			c.Put(key, []byte("v"))
		} else {
			c.Get(key)
		}
	}
}

// TestStatsRangePartition pins the identity the cluster's merged
// document rests on: summing StatsRange over any partition of [0,
// Sets) into whole policy groups reproduces Stats() exactly, whatever
// the partition's grain.
func TestStatsRangePartition(t *testing.T) {
	c, err := New(rangeTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	fillRangeTest(c, 40000)
	want := c.Stats()
	for _, step := range []int{8, 32, 64} {
		var sum Stats
		for lo := 0; lo < 64; lo += step {
			part := c.StatsRange(lo, lo+step)
			sum.Add(part)
		}
		if sum.Counters != want.Counters ||
			sum.Entries != want.Entries || sum.DirtyEntries != want.DirtyEntries ||
			sum.Retargets != want.Retargets {
			t.Fatalf("step %d: summed ranges %+v != Stats %+v", step, sum, want)
		}
		if len(sum.TargetHist) != len(want.TargetHist) {
			t.Fatalf("step %d: TargetHist lengths %d vs %d", step, len(sum.TargetHist), len(want.TargetHist))
		}
		for d := range want.TargetHist {
			if sum.TargetHist[d] != want.TargetHist[d] {
				t.Fatalf("step %d: TargetHist[%d] = %d, want %d", step, d, sum.TargetHist[d], want.TargetHist[d])
			}
		}
	}
	if want.Entries == 0 || want.DirtyEntries == 0 || want.Retargets == 0 {
		t.Fatalf("stream left stats fields zero (%+v) — partition check is weak", want)
	}
}

func TestStatsRangeBounds(t *testing.T) {
	c, err := New(rangeTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 8}, {0, 65}, {8, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StatsRange(%d, %d) did not panic", r[0], r[1])
				}
			}()
			c.StatsRange(r[0], r[1])
		}()
	}
}

// TestResetRange pins the replica-add cold-start path: the purged
// range empties (occupancy and policy state back to initial), other
// sets are untouched, cumulative op counters survive, and the cache
// keeps its invariants.
func TestResetRange(t *testing.T) {
	c, err := New(rangeTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	fillRangeTest(c, 5000)
	before := c.Stats()
	if before.Entries == 0 {
		t.Fatal("stream filled nothing")
	}
	loEntries := c.StatsRange(0, 32).Entries
	hiBefore := c.StatsRange(32, 64)

	purged := c.ResetRange(0, 32)
	if purged != loEntries {
		t.Fatalf("purged %d entries, range held %d", purged, loEntries)
	}
	lo := c.StatsRange(0, 32)
	if lo.Entries != 0 || lo.DirtyEntries != 0 {
		t.Fatalf("reset range still occupied: %+v", lo)
	}
	if lo.Retargets != 0 {
		t.Fatalf("reset range kept policy state: %d retargets", lo.Retargets)
	}
	if lo.Counters != c.StatsRange(0, 32).Counters {
		t.Fatal("stats not stable across back-to-back reads")
	}
	// Cumulative op history survives the purge (the counters are a log,
	// not contents).
	if lo.Counters.Gets == 0 && lo.Counters.Puts == 0 {
		t.Fatal("ResetRange wiped the op counters; they must be cumulative")
	}
	hi := c.StatsRange(32, 64)
	if hi.Entries != hiBefore.Entries || hi.Counters != hiBefore.Counters {
		t.Fatalf("untouched range changed: %+v vs %+v", hi, hiBefore)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reset: %v", err)
	}

	// The reset sets behave like a fresh cache: a key hashing into the
	// purged range misses, refills, and the policy machinery restarts.
	fillRangeTest(c, 5000)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after refill: %v", err)
	}
	if got := c.StatsRange(0, 32).Entries; got == 0 {
		t.Fatal("purged range did not refill")
	}
}

func TestResetRangeBounds(t *testing.T) {
	c, err := New(rangeTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("ResetRange out of bounds did not panic")
		}
	}()
	c.ResetRange(0, 128)
}

// TestStatsAddOrderIndependent pins the merge algebra: Add is
// commutative and nil TargetHists are absorbed.
func TestStatsAddOrderIndependent(t *testing.T) {
	a := Stats{Entries: 3, DirtyEntries: 1, Retargets: 2, TargetHist: []uint64{1, 0, 2}}
	a.Gets, a.GetHits = 10, 4
	b := Stats{Entries: 5, TargetHist: []uint64{0, 3, 1}}
	b.Gets, b.Puts = 7, 6
	c := Stats{Entries: 1} // nil TargetHist (LRU contribution)

	var ab Stats
	ab.Add(a)
	ab.Add(b)
	ab.Add(c)
	var ba Stats
	ba.Add(c)
	ba.Add(b)
	ba.Add(a)
	if ab.Counters != ba.Counters || ab.Entries != ba.Entries ||
		ab.DirtyEntries != ba.DirtyEntries || ab.Retargets != ba.Retargets {
		t.Fatalf("Add not commutative: %+v vs %+v", ab, ba)
	}
	for d := range ab.TargetHist {
		if ab.TargetHist[d] != ba.TargetHist[d] {
			t.Fatalf("TargetHist[%d] differs across merge order", d)
		}
	}
	if ab.Gets != 17 || ab.Entries != 9 || ab.TargetHist[1] != 3 {
		t.Fatalf("merge wrong: %+v", ab)
	}
}
