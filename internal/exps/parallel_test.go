package exps

import (
	"testing"

	"rwp/internal/report"
	"rwp/internal/runner"
)

// e3Table renders E3 over the pinned scope on the given engine.
func e3Table(t *testing.T, eng *runner.Engine) *report.Table {
	t.Helper()
	tb, _, err := pinSuite(eng).E3()
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestTablesBitIdenticalAcrossWorkers runs a representative experiment
// at -j 1, -j 4 and -j 8 and holds each table to the pinned E3 CSV:
// worker count and completion order must never leak into results.
func TestTablesBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, workers := range []int{1, 4, 8} {
		eng, err := runner.New(runner.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, "e3", e3Table(t, eng))
	}
}

// TestTablesBitIdenticalAfterResume renders the same experiment from a
// cold cache and again from the warm cache (a crash-resume in
// miniature): the resumed run must execute nothing, and both tables
// must match the pinned E3 CSV.
func TestTablesBitIdenticalAfterResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	cold, err := runner.New(runner.Config{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "e3", e3Table(t, cold))
	if st := cold.Stats(); st.Executed == 0 || st.DiskPuts != st.Executed {
		t.Fatalf("cold run stats %+v: every executed job must be persisted", st)
	}
	warm, err := runner.New(runner.Config{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "e3", e3Table(t, warm))
	if st := warm.Stats(); st.Executed != 0 {
		t.Fatalf("resumed run executed %d jobs, want 0 (full cache hit); stats %+v", st.Executed, st)
	}
}
