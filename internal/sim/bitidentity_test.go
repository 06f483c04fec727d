package sim

import (
	"reflect"
	"testing"

	"rwp/internal/workload"
)

// bitIdentityExps is a small experiment suite mixing policies and
// workloads, including a shared-LLC multiprogram run.
type bitIdentityExp struct {
	bench  string
	policy string
}

var bitIdentityExps = []bitIdentityExp{
	{"gcc", "lru"},
	{"astar", "rwp"},
	{"mcf", "dip"},
}

func runBitIdentityExp(t *testing.T, e bitIdentityExp) Result {
	t.Helper()
	prof, err := workload.Get(e.bench)
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOptions(e.policy)
	opt.Warmup = 50_000
	opt.Measure = 150_000
	res, err := RunSingle(prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunTwiceBitIdentical is a runtime gate of the determinism
// invariants (DESIGN.md §7, D1–D5 and D7): the same Options must produce
// bit-identical full Results — every counter, not just headline metrics
// — regardless of how many times or in which order the experiments are
// evaluated.
func TestRunTwiceBitIdentical(t *testing.T) {
	first := make([]Result, len(bitIdentityExps))
	for i, e := range bitIdentityExps {
		first[i] = runBitIdentityExp(t, e)
	}
	// Same options, second evaluation.
	for i, e := range bitIdentityExps {
		if got := runBitIdentityExp(t, e); !reflect.DeepEqual(got, first[i]) {
			t.Errorf("%s/%s: second run differs from first:\n  first:  %+v\n  second: %+v", e.bench, e.policy, first[i], got)
		}
	}
	// Reversed experiment evaluation order: earlier runs must leave no
	// state behind (shared registries, package-level caches, pools).
	for i := len(bitIdentityExps) - 1; i >= 0; i-- {
		e := bitIdentityExps[i]
		if got := runBitIdentityExp(t, e); !reflect.DeepEqual(got, first[i]) {
			t.Errorf("%s/%s: reversed-order run differs:\n  first:    %+v\n  reversed: %+v", e.bench, e.policy, first[i], got)
		}
	}
}

// TestRunMultiBitIdentical extends the guarantee to the interleaved
// multi-core path, whose core-picking loop is the most order-sensitive
// code in the simulator.
func TestRunMultiBitIdentical(t *testing.T) {
	profs := make([]workload.Profile, 0, 2)
	for _, name := range []string{"sphinx3", "gobmk"} {
		p, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	opt := fastOptions("rwp")
	opt.Hier.Cores = 2
	opt.Warmup = 50_000
	opt.Measure = 150_000
	a, err := RunMulti(profs, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(profs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("multi-core runs differ:\n  a: %+v\n  b: %+v", a, b)
	}
}
