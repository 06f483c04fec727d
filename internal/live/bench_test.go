package live

import (
	"strconv"
	"testing"
)

// Micro-benchmarks of the three set operations the serving paths are
// made of, at the default geometry, for measuring while working:
//
//	go test -run '^$' -bench . ./internal/live
//
// The repo's benchmark is bench/ (BENCHMARK.json); these only localise
// what it reports. Keys are equal-length hex strings, the shape of
// loadgen's line-address keys: same-length keys are the probe's worst
// case, a key compare cannot bail out on length.

// benchKeySpace is the key count relative to capacity: bench's
// direct_spill workload runs at about 19x.
const benchKeySpace = 19

var benchVal = make([]byte, 64)

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = strconv.FormatUint(1<<44|uint64(i), 16)
	}
	return keys
}

// benchCache returns a default-geometry cache with every way valid and
// the keys to drive it: warmed with the tail of the key space, so a pass
// from keys[0] misses.
func benchCache(b *testing.B, loader Loader) (*Cache, []string) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Loader = loader
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(benchKeySpace * c.Capacity())
	for _, k := range keys[len(keys)-4*c.Capacity():] {
		c.Put(k, benchVal)
	}
	if s := c.Stats(); s.Entries != c.Capacity() {
		b.Fatalf("warm-up left %d of %d ways valid", s.Entries, c.Capacity())
	}
	return c, keys
}

// BenchmarkGetHit: Get of a resident key — probe, policy touch, copy-out.
func BenchmarkGetHit(b *testing.B) {
	c, keys := benchCache(b, nil)
	var resident []string
	for _, k := range keys {
		if _, hit := c.Get(k); hit {
			resident = append(resident, k)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit := c.Get(resident[i%len(resident)]); !hit {
			b.Fatal("resident key missed")
		}
	}
}

// BenchmarkGetFill: Get of an absent key with a Loader — two miss
// probes, then a clean fill over the policy's victim. The Loader hands
// back one shared value, so the allocations reported are the cache's.
func BenchmarkGetFill(b *testing.B) {
	c, keys := benchCache(b, func(string) []byte { return benchVal })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(keys[i%len(keys)])
	}
	b.StopTimer()
	if s := c.Stats(); s.GetHits*100 > s.Gets {
		b.Fatalf("cyclic pass hit %d of %d Gets; this measures fills", s.GetHits, s.Gets)
	}
}

// BenchmarkPutInsert: Put of an absent key — one miss probe, then a
// dirty fill over the policy's victim.
func BenchmarkPutInsert(b *testing.B) {
	c, keys := benchCache(b, nil)
	c.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i%len(keys)], benchVal)
	}
	b.StopTimer()
	if s := c.Stats(); s.PutHits*100 > s.Puts {
		b.Fatalf("cyclic pass overwrote on %d of %d Puts; this measures inserts", s.PutHits, s.Puts)
	}
}

// BenchmarkStats: one Stats sweep of a full cache — every group locked,
// its ledger and occupancy summed — the cost of the range operations
// (Stats, SnapshotRange, ResetRange, CheckInvariants) that walk every
// group lock.
func BenchmarkStats(b *testing.B) {
	c, _ := benchCache(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Stats()
	}
}
