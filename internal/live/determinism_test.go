package live_test

import (
	"bytes"
	"reflect"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/snap"
)

// runProfile drives n single-goroutine loadgen operations for one
// profile (workload or adversarial) against a fresh cache with the
// given shard count and returns the observable state. mutate, if
// non-nil, adjusts the config before construction — how the tests
// below switch the stampede defenses on.
func runProfile(t *testing.T, profile string, shards, n int, mutate func(*live.Config)) live.Stats {
	t.Helper()
	cfg := live.DefaultConfig()
	cfg.Sets = 256
	cfg.Ways = 8
	cfg.Shards = shards
	cfg.RWP.Interval = 32 // ~78 ops/set over n=20k: default 256 would never fire
	cfg.Loader = loadgen.Loader(0)
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadgen.NewStream(profile, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.Run(c, g, n)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

// TestDeterministicAcrossRuns: the whole observable state — operation
// counters and their partition hit splits, occupancy, RWP targets — is
// bit-identical when the same seeded stream is replayed.
func TestDeterministicAcrossRuns(t *testing.T) {
	const n = 20_000
	s1 := runProfile(t, "mcf", 8, n, nil)
	s2 := runProfile(t, "mcf", 8, n, nil)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if s1.Gets == 0 || s1.Puts == 0 {
		t.Fatalf("degenerate stream: %+v", s1.Counters)
	}
}

// TestDeterministicAcrossShardCounts: resharding moves lock
// boundaries, not behavior — a single-goroutine run is bit-identical
// for every shard count.
func TestDeterministicAcrossShardCounts(t *testing.T) {
	const n = 20_000
	base := runProfile(t, "xalancbmk", 1, n, nil)
	for _, shards := range []int{2, 4, 16, 32} {
		s := runProfile(t, "xalancbmk", shards, n, nil)
		if !reflect.DeepEqual(base, s) {
			t.Errorf("shards=%d: stats differ from shards=1:\n%+v\n%+v", shards, base, s)
		}
	}
	if base.Retargets == 0 {
		t.Error("RWP never repartitioned over 20k ops (interval clock broken?)")
	}
}

// TestGroupsInvariantAcrossShardCounts: the policy group is a function
// of Sets alone, so a stream that crosses every group boundary leaves
// the same stats document and the same snapshot, byte for byte, whether
// a shard holds sixteen groups, eight or exactly one.
func TestGroupsInvariantAcrossShardCounts(t *testing.T) {
	run := func(shards int) (doc, state []byte) {
		cfg := live.DefaultConfig()
		cfg.Sets, cfg.Ways, cfg.Shards = 128, 4, shards
		cfg.RWP.Interval = 16
		cfg.Loader = loadgen.Loader(0)
		c, err := live.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := loadgen.NewStream("mcf", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		loadgen.Run(c, g, 20_000)
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Retargets < uint64(cfg.Sets/live.GroupSets(cfg.Sets)) {
			t.Fatalf("only %d retargets over %d groups", s.Retargets, cfg.Sets/live.GroupSets(cfg.Sets))
		}
		if doc, err = c.StatsJSON(); err != nil {
			t.Fatal(err)
		}
		return doc, snap.Encode(c.Snapshot())
	}
	doc, state := run(1)
	for _, shards := range []int{2, 16} {
		d, s := run(shards)
		if !bytes.Equal(d, doc) {
			t.Errorf("shards=%d: stats document differs from shards=1:\n%s\nvs\n%s", shards, d, doc)
		}
		if !bytes.Equal(s, state) {
			t.Errorf("shards=%d: snapshot differs from shards=1 (%d vs %d bytes)", shards, len(s), len(state))
		}
	}
}

// TestDeterministicSeedSensitivity: different seeds must actually
// change the stream (otherwise the invariance tests prove nothing).
func TestDeterministicSeedSensitivity(t *testing.T) {
	mk := func(seed uint64) live.Stats {
		cfg := live.DefaultConfig()
		cfg.Sets, cfg.Ways, cfg.Shards = 64, 4, 4
		cfg.Loader = loadgen.Loader(0)
		c, err := live.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := loadgen.New("mcf", seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		loadgen.Run(c, g, 5000)
		return c.Stats()
	}
	if reflect.DeepEqual(mk(0), mk(1)) {
		t.Fatal("seed 0 and seed 1 produced identical stats")
	}
}

// TestCoalesceSingleGoroutineIdentical: fill coalescing only collapses
// genuinely concurrent misses, so a single-goroutine run with Coalesce
// on is bit-identical — every counter, every cost histogram — to the
// same run with it off, at every shard count. This is the determinism
// contract that lets the live binaries' bit-identity tests (rwpserve's
// TestSelftestShardInvariance) run with the defense enabled.
func TestCoalesceSingleGoroutineIdentical(t *testing.T) {
	const n = 20_000
	coalesce := func(cfg *live.Config) { cfg.Coalesce = true; cfg.LeaseOps = 64 }
	base := runProfile(t, "mcf", 8, n, nil)
	for _, shards := range []int{1, 8, 32} {
		s := runProfile(t, "mcf", shards, n, coalesce)
		if !reflect.DeepEqual(base, s) {
			t.Errorf("shards=%d: coalesce-on stats differ from coalesce-off:\n%+v\n%+v", shards, base, s)
		}
	}
	if base.CoalescedLoads != 0 || base.LeaseExpires != 0 {
		t.Errorf("single-goroutine run coalesced %d / expired %d, want 0/0", base.CoalescedLoads, base.LeaseExpires)
	}
}

// TestNegCacheDeterministic: negative caching changes behavior — that
// is its job — but deterministically: an adversarial scan flood over
// the absent keyspace produces bit-identical counters on every run and
// at every shard count, because verdict expiry runs on the set's own
// op-count clock, never wall time.
func TestNegCacheDeterministic(t *testing.T) {
	const n = 20_000
	neg := func(cfg *live.Config) {
		cfg.NegOps = 64
		cfg.Coalesce = true
		cfg.Loader = loadgen.AbsentLoader(0)
	}
	base := runProfile(t, loadgen.AdvScan, 1, n, neg)
	for _, shards := range []int{2, 32} {
		s := runProfile(t, loadgen.AdvScan, shards, n, neg)
		if !reflect.DeepEqual(base, s) {
			t.Errorf("shards=%d: neg-cache stats differ from shards=1:\n%+v\n%+v", shards, base, s)
		}
	}
	if s2 := runProfile(t, loadgen.AdvScan, 1, n, neg); !reflect.DeepEqual(base, s2) {
		t.Errorf("neg-cache stats differ across identical runs:\n%+v\n%+v", base, s2)
	}
	if base.NegInserts == 0 {
		t.Error("scan flood never inserted a negative verdict")
	}
	if base.Loads != 0 {
		t.Errorf("scan flood loaded %d absent keys (AbsentLoader should return nil for all of them)", base.Loads)
	}
}
