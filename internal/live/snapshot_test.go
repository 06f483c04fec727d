package live_test

import (
	"bytes"
	"reflect"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/snap"
)

// snapTestConfig is the restart-equivalence geometry: small enough for
// fast tests, busy enough that RWP repartitions many times over the
// stream (interval 32 ≈ 78 ops/set at 20k ops over 256 sets).
func snapTestConfig(shards int) live.Config {
	cfg := live.DefaultConfig()
	cfg.Sets = 256
	cfg.Ways = 8
	cfg.Shards = shards
	cfg.RWP.Interval = 32
	cfg.Loader = loadgen.Loader(0)
	return cfg
}

func newSnapCache(t testing.TB, shards int) *live.Cache {
	t.Helper()
	c, err := live.New(snapTestConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// skippedGen returns an mcf generator advanced past the first n ops —
// the resumed half of a stream split at op n.
func skippedGen(t testing.TB, n int) *loadgen.Gen {
	t.Helper()
	g, err := loadgen.New("mcf", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g.Next()
	}
	return g
}

func statsJSON(t testing.TB, c *live.Cache) []byte {
	t.Helper()
	b, err := c.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRestartEquivalence is the tentpole contract: kill a run at op
// 12000, snapshot, restore into a fresh cache — possibly with a
// different shard count — and replay the rest of the stream. The final
// stats document must be byte-identical to a never-restarted run.
func TestRestartEquivalence(t *testing.T) {
	const total, cut = 20_000, 12_000

	// Never-restarted reference.
	base := newSnapCache(t, 1)
	g, err := loadgen.New("mcf", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.Run(base, g, total)
	baseJSON := statsJSON(t, base)

	// The "killed" run: first half on a 4-shard cache, then a wire
	// round trip of its snapshot.
	warm := newSnapCache(t, 4)
	loadgen.Run(warm, skippedGen(t, 0), cut)
	data := snap.Encode(warm.Snapshot())

	for _, shards := range []int{1, 4, 32} {
		s, err := snap.Decode(data)
		if err != nil {
			t.Fatalf("shards=%d: decode: %v", shards, err)
		}
		c := newSnapCache(t, shards)
		if err := c.RestoreSnapshot(s); err != nil {
			t.Fatalf("shards=%d: restore: %v", shards, err)
		}
		loadgen.Run(c, skippedGen(t, cut), total-cut)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("shards=%d: invariants after restored tail: %v", shards, err)
		}
		if got := statsJSON(t, c); !bytes.Equal(got, baseJSON) {
			t.Errorf("shards=%d: restored run's stats differ from the never-restarted run\ngot  %s\nwant %s",
				shards, got, baseJSON)
		}
	}
}

// TestSnapshotFixedPoint: re-snapshotting a restored cache reproduces
// the input snapshot byte for byte, across a shard-count change — the
// format is set-indexed, never shard-indexed, and restore loses
// nothing the snapshot records.
func TestSnapshotFixedPoint(t *testing.T) {
	warm := newSnapCache(t, 4)
	loadgen.Run(warm, skippedGen(t, 0), 12_000)
	data := snap.Encode(warm.Snapshot())

	s, err := snap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	c := newSnapCache(t, 32)
	if err := c.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	again := snap.Encode(c.Snapshot())
	if !bytes.Equal(data, again) {
		t.Fatalf("re-snapshot is not a fixed point: %d bytes vs %d bytes", len(data), len(again))
	}
}

// TestRestoreSnapshotRejects: every mismatch between snapshot and
// cache is refused up front, and a refused restore leaves the cache
// byte-identical — never partially restored.
func TestRestoreSnapshotRejects(t *testing.T) {
	warm := newSnapCache(t, 4)
	loadgen.Run(warm, skippedGen(t, 0), 3000)

	target := newSnapCache(t, 4)
	loadgen.Run(target, skippedGen(t, 0), 500)
	before := statsJSON(t, target)

	cases := []struct {
		name string
		mut  func(s *snap.Snapshot)
		// wire: also refused by RestoreBytes (catch-up semantics), after
		// a trip through the codec.
		wire bool
	}{
		{name: "partial range", mut: func(s *snap.Snapshot) { s.Hi = 128; s.Records = s.Records[:128]; s.Groups = s.Groups[:16] }},
		{name: "wrong sets", mut: func(s *snap.Snapshot) { s.Sets = 512 }},
		{name: "wrong ways", mut: func(s *snap.Snapshot) { s.Ways = 4 }},
		{name: "wrong policy", mut: func(s *snap.Snapshot) { s.Policy = "lru" }},
		{name: "wrong rwp interval", mut: func(s *snap.Snapshot) { s.RWP.Interval = 64 }},
		{name: "missing record", mut: func(s *snap.Snapshot) { s.Records = s.Records[:len(s.Records)-1] }},
		{name: "misnumbered record", mut: func(s *snap.Snapshot) { s.Records[7].Set = 9 }},
		{name: "foreign key", mut: func(s *snap.Snapshot) {
			for i := range s.Records {
				if len(s.Records[i].Entries) > 0 {
					s.Records[i].Entries[0].Key = "not-in-this-set"
					return
				}
			}
			t.Fatal("no resident entries to corrupt")
		}},
		{name: "corrupt rwp state", mut: func(s *snap.Snapshot) { s.Groups[3].RWP.RetargetUp++ }},
		{name: "two samplers in a group", mut: func(s *snap.Snapshot) {
			s.Groups[3].RWP.Samplers = append(s.Groups[3].RWP.Samplers, s.Groups[3].RWP.Samplers[0])
		}},
		{name: "missing group record", mut: func(s *snap.Snapshot) { s.Groups = s.Groups[:len(s.Groups)-1] }},
		{name: "a group record per set", mut: func(s *snap.Snapshot) {
			for len(s.Groups) < len(s.Records) {
				s.Groups = append(s.Groups, s.Groups[0])
			}
		}},
		{name: "group without its predictor", mut: func(s *snap.Snapshot) { s.Groups[3].RWP = nil }},
		// The counter vector is opaque to the codec, so these arrive
		// intact through snap.Decode and are this package's to refuse
		// (every law, one by one: TestRestoreRejectsBrokenLaws).
		{"short counter vector", func(s *snap.Snapshot) { g := &s.Groups[5]; g.Ops = g.Ops[:len(g.Ops)-1] }, true},
		{"long counter vector", func(s *snap.Snapshot) { g := &s.Groups[5]; g.Ops = append(g.Ops, 0) }, true},
		{"get split broken", func(s *snap.Snapshot) { s.Groups[5].Ops[0]++ }, true},      // Gets
		{"get-hit split broken", func(s *snap.Snapshot) { s.Groups[5].Ops[17]++ }, true}, // GetHitsClean
		{"put-hit split broken", func(s *snap.Snapshot) { s.Groups[5].Ops[20]++ }, true}, // PutHitsDirty
		{"dirty evictions exceed evictions", func(s *snap.Snapshot) { o := s.Groups[5].Ops; o[16] = o[15] + 1 }, true},
		{"loads exceed fills", func(s *snap.Snapshot) { o := s.Groups[5].Ops; o[6] = o[13] + 1 }, true},
	}
	for _, tc := range cases {
		s := warm.Snapshot() // fresh deep snapshot per case
		tc.mut(s)
		if err := target.RestoreSnapshot(s); err == nil {
			t.Errorf("%s: RestoreSnapshot accepted a mismatched snapshot", tc.name)
		}
		if tc.wire {
			if _, err := target.RestoreBytes(snap.Encode(s)); err == nil {
				t.Errorf("%s: RestoreBytes accepted a mismatched snapshot", tc.name)
			}
		}
		if got := statsJSON(t, target); !bytes.Equal(got, before) {
			t.Errorf("%s: rejected restore mutated the cache", tc.name)
		}
	}

	// Corrupt bytes through the wire entry point: decode fails, cache
	// untouched.
	data := snap.Encode(warm.Snapshot())
	data[len(data)/2] ^= 0x40
	if _, err := target.RestoreBytes(data); err == nil {
		t.Error("RestoreBytes accepted corrupt bytes")
	}
	if got := statsJSON(t, target); !bytes.Equal(got, before) {
		t.Error("failed RestoreBytes mutated the cache")
	}
}

// TestRestoreRangePreservesCounters pins the catch-up semantics: a
// range restore installs the primary's entries and policy occupancy
// but keeps the target's own cumulative counters and cost histograms —
// the cluster's merged document sums every node, so copying the
// primary's counters would double-count.
func TestRestoreRangePreservesCounters(t *testing.T) {
	primary := newSnapCache(t, 4)
	loadgen.Run(primary, skippedGen(t, 0), 8000)

	target := newSnapCache(t, 4)
	g, err := loadgen.New("xalancbmk", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.Run(target, g, 2000)

	const lo, hi = 64, 192
	s := primary.SnapshotRange(lo, hi)
	beforeOps := target.Stats().Counters
	beforeCosts := target.Stats().CostHist

	purged, err := target.RestoreRange(s)
	if err != nil {
		t.Fatalf("RestoreRange: %v", err)
	}
	if purged == 0 {
		t.Error("RestoreRange purged nothing; target range was not warm")
	}
	after := target.Stats()
	if !reflect.DeepEqual(after.Counters, beforeOps) {
		t.Errorf("catch-up rewrote op counters:\nbefore %+v\nafter  %+v", beforeOps, after.Counters)
	}
	if !reflect.DeepEqual(after.CostHist, beforeCosts) {
		t.Error("catch-up rewrote the cost histogram")
	}
	if err := target.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Read-your-write: keys the primary held in the range are resident
	// on the target now (no Loader round trip needed to hit).
	checked := 0
	for i := range s.Records {
		for j := range s.Records[i].Entries {
			e := &s.Records[i].Entries[j]
			v, hit := target.Get(e.Key)
			if !hit {
				t.Fatalf("key %q from the primary's snapshot missed after catch-up", e.Key)
			}
			if !bytes.Equal(v, e.Value) {
				t.Fatalf("key %q holds the wrong value after catch-up", e.Key)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("primary snapshot range held no entries; test is vacuous")
	}
}

// TestRestoredGetHitAllocs: restoring must not regress the serving
// path — a Get hit on a restored cache stays at exactly one allocation
// (the copy-out), same as TestGetHitAllocs pins for a cold cache.
func TestRestoredGetHitAllocs(t *testing.T) {
	warm := newSnapCache(t, 4)
	loadgen.Run(warm, skippedGen(t, 0), 4000)
	s := warm.Snapshot()

	c := newSnapCache(t, 4)
	if err := c.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	var key string
	for i := range s.Records {
		if len(s.Records[i].Entries) > 0 {
			key = s.Records[i].Entries[0].Key
			break
		}
	}
	if key == "" {
		t.Fatal("snapshot holds no entries")
	}
	if _, hit := c.Get(key); !hit {
		t.Fatal("warmup Get missed on restored cache")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, hit := c.Get(key); !hit {
			t.Fatal("Get missed inside AllocsPerRun")
		}
	})
	//rwplint:allow floateq — AllocsPerRun yields an exact small-integer float; the pin is exact by design
	if allocs != 1 {
		t.Errorf("restored Get hit allocates %.1f objects/op, want exactly 1", allocs)
	}
}

// BenchmarkSnapshotEncode measures capturing + encoding a warm cache —
// the checkpoint write path minus the fsync.
func BenchmarkSnapshotEncode(b *testing.B) {
	c := newSnapCache(b, 4)
	loadgen.Run(c, skippedGen(b, 0), 12_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(snap.Encode(c.Snapshot())) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkRestoreSnapshot measures decode + full restore into a fresh
// cache — the warm-restart startup cost.
func BenchmarkRestoreSnapshot(b *testing.B) {
	warm := newSnapCache(b, 4)
	loadgen.Run(warm, skippedGen(b, 0), 12_000)
	data := snap.Encode(warm.Snapshot())
	c := newSnapCache(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := snap.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.RestoreSnapshot(s); err != nil {
			b.Fatal(err)
		}
	}
}
