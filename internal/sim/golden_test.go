package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rwp/internal/hier"
	"rwp/internal/workload"
)

// goldenPath holds full Result documents. It is the cross-commit pin
// that bitidentity_test.go cannot be: a layout or allocation change must
// reproduce every counter of every job here byte for byte. It was first
// written by the binary of the commit before the simulator's data layout
// was packed, and rewritten only when cache.Stats gained its per-class
// bypasses and dirty splits: deleting HitsDirty and FillsDirty and
// summing Bypasses gives back the earlier file byte for byte. It may only
// change together with a runner.SchemaSalt bump.
// To regenerate, delete the file and run the test once: it rewrites the
// file and fails, so a silent regeneration cannot pass CI.
const goldenPath = "testdata/results_golden.json"

// goldenJob is one pinned run: a single-core job when mix is empty.
type goldenJob struct {
	Name   string
	policy string
	bench  string
	mix    []string
	// llcBytes/llcWays override the LLC geometry when nonzero, so the
	// pin also covers a small, constantly evicting LLC.
	llcBytes, llcWays int
}

var goldenJobs = []goldenJob{
	{Name: "mcf/lru", bench: "mcf", policy: "lru"},
	{Name: "mcf/rwp", bench: "mcf", policy: "rwp"},
	{Name: "mcf/rrp", bench: "mcf", policy: "rrp"},
	{Name: "mcf/dip", bench: "mcf", policy: "dip"},
	{Name: "gcc/rwp", bench: "gcc", policy: "rwp"},
	{Name: "gcc/drrip", bench: "gcc", policy: "drrip"},
	{Name: "gcc/ucp", bench: "gcc", policy: "ucp"},
	{Name: "dealII/lru", bench: "dealII", policy: "lru"},
	{Name: "dealII/ship", bench: "dealII", policy: "ship"},
	{Name: "soplex/rwp", bench: "soplex", policy: "rwp"},
	{Name: "soplex/rrp", bench: "soplex", policy: "rrp"},
	{Name: "soplex/rwp/256K-8w", bench: "soplex", policy: "rwp", llcBytes: 256 << 10, llcWays: 8},
	{Name: "mix4/rwp", mix: []string{"mcf", "gcc", "dealII", "soplex"}, policy: "rwp"},
	{Name: "mix4/ucp", mix: []string{"mcf", "gcc", "dealII", "soplex"}, policy: "ucp"},
}

// goldenDoc is one job's entry in the golden file: one Result for a
// single-core job, one per core for a mix.
type goldenDoc struct {
	Name    string
	Results []Result
}

func runGoldenJob(t *testing.T, j goldenJob) goldenDoc {
	t.Helper()
	opt := DefaultOptions()
	if len(j.mix) > 0 {
		opt.Hier = hier.MulticoreConfig(len(j.mix))
	}
	opt.Hier.LLCPolicy = j.policy
	if j.llcBytes > 0 {
		opt.Hier.LLC.SizeBytes, opt.Hier.LLC.Ways = j.llcBytes, j.llcWays
	}
	opt.Warmup, opt.Measure = 50_000, 200_000
	if len(j.mix) == 0 {
		prof, err := workload.Get(j.bench)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSingle(prof, opt)
		if err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		return goldenDoc{Name: j.Name, Results: []Result{res}}
	}
	profs := make([]workload.Profile, len(j.mix))
	for i, name := range j.mix {
		p, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		profs[i] = p
	}
	res, err := RunMulti(profs, opt)
	if err != nil {
		t.Fatalf("%s: %v", j.Name, err)
	}
	return goldenDoc{Name: j.Name, Results: res.PerCore}
}

// TestResultsGolden reproduces the committed documents byte for byte.
func TestResultsGolden(t *testing.T) {
	docs := make([]goldenDoc, len(goldenJobs))
	for i, j := range goldenJobs {
		docs[i] = runGoldenJob(t, j)
	}
	got, err := json.MarshalIndent(docs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this binary — review and rerun", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(gl) && i < len(wl) && shown < 10; i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d: got %q, golden %q", i+1, strings.TrimSpace(gl[i]), strings.TrimSpace(wl[i]))
			shown++
		}
	}
	t.Fatalf("simulator results differ from %s (%d vs %d lines)", goldenPath, len(gl), len(wl))
}
