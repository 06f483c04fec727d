package live

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"rwp/internal/cache"
	"rwp/internal/xrand"
)

// This file pins lazy way storage: a set gets its entries at its first
// fill, a group its tag store and policy at the first fill into any of
// its sets, and ResetRange hands both back.

// eager gives every set of c its storage and every group its tag store —
// the layout New built when nothing was lazy. The oracle below keeps
// that layout as the reference the lazy one is checked against; it is
// reapplied after every reset and restore, which release storage.
func eager(c *Cache) {
	c.eachGroup(0, c.cfg.Sets, func(g *group, _ int) {
		for i := range g.sets {
			if g.sets[i].entries == nil {
				g.sets[i].grow()
			}
		}
	})
}

// heapNow is the live heap after two collections.
func heapNow() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEagerOracle drives one seeded stream through a cache laid out
// eagerly and two lazy ones, under both policies.
// The key space widens as the stream runs, so groups are touched one
// after another; the Loader reports some keys absent, so some sets take
// misses long before their first fill. Midway a range is reset on all
// three, and the second lazy cache takes a whole-cache transfer of the
// first (catch-up keeps its own counters, which the shared stream made
// equal): one SnapBytes/RestoreBytes per ring shard, as the cluster
// layer moves them, so one at shards=1 and eight at shards=8. After
// every step the stats document and the snapshot are byte-identical
// across the three, and every invariant holds.
func TestEagerOracle(t *testing.T) {
	const ops, sets = 2000, 128
	for _, pol := range []string{"lru", "rwp"} {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", pol, shards), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Sets, cfg.Ways, cfg.Policy = sets, 4, pol
				cfg.RWP.Interval = 8
				cfg.Loader = func(key string) []byte {
					if HashKey(key)%5 == 0 {
						return nil
					}
					return []byte("ld:" + key)
				}
				ref, lazy, restored := mustNew(t, cfg), mustNew(t, cfg), mustNew(t, cfg)
				eager(ref)
				caches := []*Cache{ref, lazy, restored}
				rng := xrand.New(37)
				for i := 0; i < ops; i++ {
					key := "k" + strconv.Itoa(rng.Intn(8+i/4))
					put := rng.Chance(0.3)
					for _, c := range caches {
						if put {
							c.Put(key, []byte("v"+strconv.Itoa(i)))
						} else {
							c.Get(key)
						}
					}
					switch i {
					case ops / 2:
						for _, c := range caches {
							c.ResetRange(sets/4, sets/2)
						}
						eager(ref)
					case ops / 3, 3 * ops / 4:
						for lo := 0; lo < sets; lo += sets / shards {
							b, err := lazy.SnapBytes(lo, lo+sets/shards)
							if err != nil {
								t.Fatal(err)
							}
							if _, err := restored.RestoreBytes(b); err != nil {
								t.Fatal(err)
							}
						}
					}
					sameEverywhere(t, i, caches)
				}
				if s := lazy.Stats(); s.Entries == 0 || s.GetHits == 0 || (pol == "rwp" && s.Retargets == 0) {
					t.Fatalf("degenerate stream: %+v", s)
				}
			})
		}
	}
}

// sameEverywhere fails the test unless every cache holds its invariants
// and renders the same stats document and snapshot as caches[0].
func sameEverywhere(t *testing.T, op int, caches []*Cache) {
	t.Helper()
	var wantStats, wantSnap []byte
	for i, c := range caches {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("op %d, cache %d: %v", op, i, err)
		}
		st, err := c.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		sn, err := c.SnapBytes(0, c.cfg.Sets)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantStats, wantSnap = st, sn
			continue
		}
		if !bytes.Equal(st, wantStats) {
			t.Fatalf("op %d: cache %d stats document differs from the eager cache's:\n%s\nwant\n%s", op, i, st, wantStats)
		}
		if !bytes.Equal(sn, wantSnap) {
			t.Fatalf("op %d: cache %d snapshot differs from the eager cache's", op, i)
		}
	}
}

// TestNewFootprint pins what an untouched cache costs: at the default
// 1024 × 16 geometry, New holds the lsets, the groups with their ledgers
// and locks, and one fresh predictor on its tag store — no way storage
// and no tag store per group: 117 392 B (117 968 B with eight lock
// shards), where 72-byte lsets had 112 bytes (per-set tags and counts)
// and took 177 136 B. Building every set's storage and every group's
// policy up front took 948 976 B.
func TestNewFootprint(t *testing.T) {
	const limit = 128 << 10
	before := heapNow()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	grown := int64(heapNow()) - int64(before)
	runtime.KeepAlive(c)
	t.Logf("New(DefaultConfig()) grew the heap %d B", grown)
	if grown > limit {
		t.Errorf("New(DefaultConfig()) grew the heap %d B, want at most %d", grown, limit)
	}
}

// TestResetRangeReleasesStorage: a reset range gives its way storage and
// policies back — the heap drops by at least the storage of the sets it
// held — and the sets refill from nothing afterwards.
func TestResetRangeReleasesStorage(t *testing.T) {
	cfg := DefaultConfig()
	c := mustNew(t, cfg)
	val := make([]byte, 8)
	for i := 0; i < 8*cfg.Sets; i++ {
		c.Put("k:"+strconv.Itoa(i), val)
	}
	lo, hi := 0, cfg.Sets/2
	touched := 0
	c.eachGroup(lo, hi, func(g *group, _ int) {
		for i := range g.sets {
			if g.sets[i].entries != nil {
				touched++
			}
		}
	})
	if touched != hi-lo {
		t.Fatalf("%d of %d sets touched; the test wants them all", touched, hi-lo)
	}
	before := heapNow()
	if purged := c.ResetRange(lo, hi); purged == 0 {
		t.Fatal("ResetRange purged nothing")
	}
	dropped := int64(before) - int64(heapNow())
	// Per set: 16 entries and, in its group's tag store, 16 tags and 16
	// flag bytes (656 B); per group the store itself. That is before the
	// entries' value buffers and the groups' policies.
	storage := int64(touched)*int64(cfg.Ways)*(8+1+32) + int64(touched/GroupSets(cfg.Sets))*int64(unsafe.Sizeof(cache.Cache{}))
	t.Logf("ResetRange of %d touched sets dropped %d B of heap (way storage alone is %d B)", touched, dropped, storage)
	if dropped < storage {
		t.Errorf("ResetRange of %d touched sets dropped %d B of heap, want at least their %d B of way storage", touched, dropped, storage)
	}
	c.eachGroup(lo, hi, func(g *group, base int) {
		if g.tags != nil {
			t.Errorf("group at set %d kept its tag store across ResetRange", base)
		}
		for i := range g.sets {
			if g.sets[i].entries != nil {
				t.Errorf("set %d kept its storage across ResetRange", base+i)
			}
		}
	})
	for i := 0; i < 8*cfg.Sets; i++ {
		c.Put("k:"+strconv.Itoa(i), val)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFirstFillAllocs pins what a first fill costs in allocations: into
// an untouched set of an untouched group, the group's tag store (five:
// the Cache, its tags, flags, valid and dirty counts) and policy, the
// set's entries and the way's value buffer; into an untouched set of a
// touched group, the entries and the buffer alone.
func TestFirstFillAllocs(t *testing.T) {
	const runs = 16
	for _, tc := range []struct {
		pol           string
		group, second float64 // first fill into a group; into its second set
	}{
		{"lru", 10, 2},
		{"rwp", 16, 2},
	} {
		cfg := DefaultConfig()
		cfg.Policy = tc.pol
		c := mustNew(t, cfg)
		gs := GroupSets(cfg.Sets)
		// first holds keys of runs+1 different groups (AllocsPerRun's
		// warm-up takes one more than runs), second one key more per group,
		// in another set of it.
		var first, second []string
		firstSet := map[int]int{} // group -> its first key's set, -1 once paired
		for i := 0; len(second) < runs+1; i++ {
			key := "k" + strconv.Itoa(i)
			set := int(HashKey(key) & c.mask)
			at, ok := firstSet[set/gs]
			switch {
			case !ok && len(first) < runs+1:
				firstSet[set/gs] = set
				first = append(first, key)
			case ok && at >= 0 && at != set:
				firstSet[set/gs] = -1
				second = append(second, key)
			}
		}
		val := []byte("value")
		run := func(keys []string) float64 {
			next := 0
			return testing.AllocsPerRun(runs, func() {
				c.Put(keys[next], val)
				next++
			})
		}
		if got := run(first); got != tc.group {
			t.Errorf("%s: a first fill into an untouched group allocates %.1f objects, want %.0f", tc.pol, got, tc.group)
		}
		if got := run(second); got != tc.second {
			t.Errorf("%s: a first fill into an untouched set of a touched group allocates %.1f objects, want %.0f", tc.pol, got, tc.second)
		}
	}
}
