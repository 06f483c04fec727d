package exps

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rwp/internal/report"
	"rwp/internal/runner"
)

// pinBenches is the scope of the table pins: six cache-sensitive and six
// insensitive benchmarks, four of the latter from the compute-bound pool
// that E7 and E11 draw their fillers from. A map of twelve keys keeps
// their sorted order in about 0.3 % of runs, so a table whose rows come
// from a map range differs from its pin.
var pinBenches = []string{
	"bzip2", "cactusADM", "gcc", "mcf", "sphinx3", "xalancbmk", // sensitive
	"gobmk", "hmmer", "lbm", "libquantum", "namd", "povray", // insensitive
}

// pinSuite returns the pinned scope at tiny scale, executing on eng.
func pinSuite(eng *runner.Engine) *Suite {
	s := NewSuiteEngine(tiny, eng)
	s.Benches = pinBenches
	return s
}

// checkPinned compares a table's CSV, as `rwpexp -csv` writes it, with
// testdata/<name>.csv byte for byte. A missing file is written from this
// binary and the test fails, so a silent regeneration cannot pass; a
// deliberate move deletes the files it changes and reruns the test once.
func checkPinned(t *testing.T, name string, tb *report.Table) {
	t.Helper()
	var got bytes.Buffer
	if err := tb.RenderCSV(&got); err != nil {
		t.Fatalf("%s: CSV: %v", name, err)
	}
	path := filepath.Join("testdata", name+".csv")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s: %s was missing; wrote it from this binary — review and rerun", name, path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Errorf("%s: line %d = %q, pinned %q", name, i+1, gl[i], wl[i])
		}
	}
	t.Errorf("%s: table differs from %s (%d lines, pinned %d)", name, path, len(gl), len(wl))
}

// TestEveryExperimentRunsOnRestrictedSuite drives every registered
// experiment end to end on the pinned scope at the tiny scale — sweeps,
// ablation variants, the multi-core driver — and holds each table's CSV
// to its file in testdata/ byte for byte, so a moved number fails here
// and names its experiment.
func TestEveryExperimentRunsOnRestrictedSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := pinSuite(runner.NewDefault())
	for _, e := range Registry() {
		tb, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		checkPinned(t, strings.ToLower(e.ID), tb)
	}
}

func TestAblationDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(tiny)
	s.Benches = []string{"sphinx3", "gcc"}
	_, a1, err := s.A1()
	if err != nil {
		t.Fatal(err)
	}
	// On a two-benchmark scope a single static split can legitimately win
	// (both workloads may want the same d, and statics pay no training
	// transient at tiny scale); the dynamic predictor only needs to stay
	// in the same league here. The across-suite claim is A1 at full scale.
	if a1.DynamicGeo < 0.90*a1.BestStatic {
		t.Fatalf("dynamic %.4f far below best static %.4f", a1.DynamicGeo, a1.BestStatic)
	}
	if a1.DynamicGeo <= 1.0 {
		t.Fatalf("dynamic predictor gained nothing: %.4f", a1.DynamicGeo)
	}
	// An all-dirty static split must clearly trail the dynamic one on
	// write-once-polluted workloads.
	if a1.StaticGeo[16] >= a1.DynamicGeo {
		t.Fatalf("static-16 %.4f >= dynamic %.4f", a1.StaticGeo[16], a1.DynamicGeo)
	}
	_, a2, err := s.A2()
	if err != nil {
		t.Fatal(err)
	}
	// More samplers must not be catastrophically worse than fewer.
	if a2.Geo[128] < 0.9*a2.Geo[4] {
		t.Fatalf("128 samplers (%.4f) much worse than 4 (%.4f)", a2.Geo[128], a2.Geo[4])
	}
}
