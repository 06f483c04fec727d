package live_test

import (
	"reflect"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
)

// runProfile drives n single-goroutine loadgen operations for one
// profile (workload or adversarial) against a fresh cache and returns
// the observable state. mutate, if
// non-nil, adjusts the config before construction — how the tests
// below switch the stampede defenses on.
func runProfile(t *testing.T, profile string, n int, mutate func(*live.Config)) live.Stats {
	t.Helper()
	cfg := live.DefaultConfig()
	cfg.Sets = 256
	cfg.Ways = 8
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
// bit-identical when the same seeded stream is replayed, and the stream
// retargets at least as often as there are policy groups.
func TestDeterministicAcrossRuns(t *testing.T) {
	const n, groups = 20_000, 256 / 8
	s1 := runProfile(t, "mcf", n, nil)
	s2 := runProfile(t, "mcf", n, nil)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if s1.Gets == 0 || s1.Puts == 0 {
		t.Fatalf("degenerate stream: %+v", s1.Counters)
	}
	if s1.Retargets < groups {
		t.Errorf("only %d retargets over %d groups in %d ops (interval clock broken?)", s1.Retargets, groups, n)
	}
}

// TestDeterministicSeedSensitivity: different seeds must actually
// change the stream (otherwise the invariance tests prove nothing).
func TestDeterministicSeedSensitivity(t *testing.T) {
	mk := func(seed uint64) live.Stats {
		cfg := live.DefaultConfig()
		cfg.Sets, cfg.Ways = 64, 4
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
// same run with it off. This is the determinism contract that lets the
// live binaries' bit-identity tests (rwpserve's
// TestSelftestDefensesAreObserveOnly) run with the defense enabled.
func TestCoalesceSingleGoroutineIdentical(t *testing.T) {
	const n = 20_000
	coalesce := func(cfg *live.Config) { cfg.Coalesce = true; cfg.LeaseOps = 64 }
	base := runProfile(t, "mcf", n, nil)
	if s := runProfile(t, "mcf", n, coalesce); !reflect.DeepEqual(base, s) {
		t.Errorf("coalesce-on stats differ from coalesce-off:\n%+v\n%+v", base, s)
	}
	if base.CoalescedLoads != 0 || base.LeaseExpires != 0 {
		t.Errorf("single-goroutine run coalesced %d / expired %d, want 0/0", base.CoalescedLoads, base.LeaseExpires)
	}
}

// TestNegCacheDeterministic: negative caching changes behavior — that
// is its job — but deterministically: an adversarial scan flood over
// the absent keyspace produces bit-identical counters on every run,
// because verdict expiry runs on the set's own op-count clock, never
// wall time.
func TestNegCacheDeterministic(t *testing.T) {
	const n = 20_000
	neg := func(cfg *live.Config) {
		cfg.NegOps = 64
		cfg.Coalesce = true
		cfg.Loader = loadgen.AbsentLoader(0)
	}
	base := runProfile(t, loadgen.AdvScan, n, neg)
	if s2 := runProfile(t, loadgen.AdvScan, n, neg); !reflect.DeepEqual(base, s2) {
		t.Errorf("neg-cache stats differ across identical runs:\n%+v\n%+v", base, s2)
	}
	if base.NegInserts == 0 {
		t.Error("scan flood never inserted a negative verdict")
	}
	if base.Loads != 0 {
		t.Errorf("scan flood loaded %d absent keys (AbsentLoader should return nil for all of them)", base.Loads)
	}
}
