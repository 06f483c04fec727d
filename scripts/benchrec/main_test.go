package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func repoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func metric(t *testing.T, spec *benchSpec, name string) metricSpec {
	t.Helper()
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %q", name)
	return metricSpec{}
}

// TestExactnessComesFromTheBenchmark: the exact metrics are the ones
// bench/spec.go marks, and the counted and timed ones are not.
func TestExactnessComesFromTheBenchmark(t *testing.T) {
	spec := repoSpec(t)
	for name, want := range map[string]bool{
		"read_hit_rate": true, "verified_ops_share": true, "model_cost_per_op": true,
		"ops_per_s": false, "allocs_per_op": false, "heap_mb": false,
	} {
		if got := metric(t, spec, name).exact; got != want {
			t.Errorf("%s: exact = %v, want %v", name, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	runs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0.25: 1.75, 0.5: 2.5, 0.75: 3.25} {
		//rwplint:allow floateq — the interpolation is exact on these small integers
		if got := quantile(runs, q); got != want {
			t.Errorf("quantile(%v, %v) = %v, want %v", runs, q, got, want)
		}
	}
	if !slices.Equal(runs, []float64{4, 1, 3, 2}) {
		t.Error("quantile sorted its argument in place")
	}
}

func TestVerdicts(t *testing.T) {
	spec := repoSpec(t)
	ten := func(v float64) []float64 { return []float64{v, v, v, v, v, v, v, v, v, v} }
	spread := func(base float64) []float64 { // quartiles 0.9 and 1.1 of base
		return []float64{0.8 * base, 0.9 * base, 0.9 * base, 0.9 * base, base, base, 1.1 * base, 1.1 * base, 1.1 * base, 1.2 * base}
	}
	for _, tc := range []struct {
		metric         string
		parent, change []float64
		want           string
	}{
		{"read_hit_rate", ten(0.9), ten(0.9), "identical"},
		{"read_hit_rate", ten(0.9), append(ten(0.9)[:9], 0.91), "differs"},
		{"allocs_per_op", ten(1), ten(1.09), "worse"}, // bound 8 %
		{"allocs_per_op", ten(1), ten(1.07), "within bound"},
		{"allocs_per_op", ten(1), ten(0.5), "better"},
		{"allocs_per_op", []float64{1}, []float64{0.5}, "within bound"}, // one pair claims nothing
		{"ops_per_s", spread(100), spread(110), "within bound"},         // won every pair, by less than the quartile distance
		{"ops_per_s", spread(100), spread(125), "better"},
		{"heap_mb", spread(100), spread(100), "unresolved"}, // bound 5 %, quartiles 20 % apart
		{"heap_mb", ten(100), ten(106), "worse"},
	} {
		m := metric(t, spec, tc.metric)
		if got := newMetricRec(m, tc.parent, tc.change).Verdict; got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.metric, tc.parent, tc.change, got, tc.want)
		}
	}
}

// TestFileHasSortedKeys: re-encoding the record through generic maps,
// which encoding/json writes in key order, changes no byte.
func TestFileHasSortedKeys(t *testing.T) {
	spec := repoSpec(t)
	c := &comparison{Pairs: 2, Metrics: map[string]*metricRec{}}
	for _, m := range spec.EndToEnd {
		c.Metrics[m.Name] = newMetricRec(m, []float64{1, 2}, []float64{1, 3})
	}
	tr := trajectory{Command: command, Parent: "abc", PR: 7, Schema: schema, Host: hostInfo{CPUs: 2, Go: "go1.24.0"},
		Seeds: map[string]map[string]*comparison{"1": {"tcp_pipe": c}}}
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var generic any
	if err := json.Unmarshal(b, &generic); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.MarshalIndent(generic, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, sorted) {
		t.Fatalf("keys are not sorted:\n%s", b)
	}
}

func TestParsePlan(t *testing.T) {
	spec := repoSpec(t)
	all, err := parsePlan(spec, "")
	if err != nil || len(all) != len(spec.Workloads) || all[0].pairs != 10 {
		t.Fatalf("default plan %v, %v: want every workload at 10 pairs", all, err)
	}
	plan, err := parsePlan(spec, "tcp_pipe:3,sim_llc")
	if err != nil || len(plan) != 2 || plan[0] != (planned{"tcp_pipe", 3}) || plan[1] != (planned{"sim_llc", 10}) {
		t.Fatalf("plan %v, %v", plan, err)
	}
	for _, bad := range []string{"bogus", "tcp_pipe:0", "tcp_pipe:x", "tcp_pipe,"} {
		if _, err := parsePlan(spec, bad); err == nil {
			t.Errorf("-workloads %q accepted", bad)
		}
	}
}

// TestCheck: -check passes a recorded file whose exact metrics match
// and whose medians hold their bounds, and fails one that breaks either.
func TestCheck(t *testing.T) {
	spec := repoSpec(t)
	write := func(heapChange float64) string {
		c := &comparison{Pairs: 2, Metrics: map[string]*metricRec{}}
		for _, m := range spec.EndToEnd {
			change := []float64{1, 1}
			if m.Name == "heap_mb" {
				change = []float64{heapChange, heapChange}
			}
			c.Metrics[m.Name] = newMetricRec(m, []float64{1, 1}, change)
		}
		b, err := json.Marshal(trajectory{Schema: schema, Seeds: map[string]map[string]*comparison{"1": {"cluster_batch": c}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCH_1.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out, errs bytes.Buffer
	if code := checkFile(write(1.01), spec, &out, &errs); code != 0 {
		t.Fatalf("a file within every bound: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if code := checkFile(write(1.10), spec, &out, &errs); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Fatalf("heap_mb 10 %% over its 5 %% bound: exit %d\n%s", code, out.String())
	}
}

// TestHeadCompare: -head passes a run whose exact metrics equal the
// record's change medians bit for bit and whose allocs_per_op is within
// its 8 % bound, and counts every metric that moved: an exact one by one
// ulp, allocs_per_op past its bound in either direction, and a metric
// the record lacks.
func TestHeadCompare(t *testing.T) {
	spec := repoSpec(t)
	const hit, allocs = 0.9995474288042264, 0.0157488
	rec := func() *comparison {
		c := &comparison{Pairs: 1, Metrics: map[string]*metricRec{}}
		for _, m := range spec.EndToEnd {
			v := 2.0
			switch m.Name {
			case "read_hit_rate":
				v = hit
			case "allocs_per_op":
				v = allocs
			}
			c.Metrics[m.Name] = newMetricRec(m, []float64{v}, []float64{v})
		}
		return c
	}
	run := func(edit func(map[string]float64)) map[string]float64 {
		got := map[string]float64{}
		for _, m := range spec.EndToEnd {
			got[m.Name] = rec().Metrics[m.Name].Change.Median
		}
		edit(got)
		return got
	}
	var out bytes.Buffer
	for _, tc := range []struct {
		name  string
		c     *comparison
		edit  func(map[string]float64)
		moved int
	}{
		{"unchanged", rec(), func(map[string]float64) {}, 0},
		{"allocs within bound, timing moved", rec(), func(g map[string]float64) {
			g["allocs_per_op"] *= 1.07
			g["ops_per_s"] *= 3
			g["heap_mb"] /= 2
		}, 0},
		{"exact metric one ulp off", rec(), func(g map[string]float64) { g["read_hit_rate"] = math.Nextafter(hit, 1) }, 1},
		{"allocs down past bound", rec(), func(g map[string]float64) { g["allocs_per_op"] *= 0.9 }, 1},
		{"allocs up past bound", rec(), func(g map[string]float64) { g["allocs_per_op"] *= 1.09 }, 1},
		{"record lacks a metric", func() *comparison { c := rec(); delete(c.Metrics, "model_cost_per_op"); return c }(), func(map[string]float64) {}, 1},
	} {
		out.Reset()
		if got := headCompare(spec, "direct_fit", tc.c, run(tc.edit), &out); got != tc.moved {
			t.Errorf("%s: %d moved, want %d\n%s", tc.name, got, tc.moved, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != 6 {
			t.Errorf("%s: %d rows, want 6 (five exact metrics and allocs_per_op)\n%s", tc.name, rows, out.String())
		}
	}
}

// TestNewestRecord: -head reads the record of the largest PR number, not
// the lexically last name.
func TestNewestRecord(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_9.json", "BENCH_37.json", "BENCH_x.json", "BENCH_4.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := newestRecord(dir); err != nil || filepath.Base(got) != "BENCH_37.json" {
		t.Fatalf("newestRecord = %q, %v; want BENCH_37.json", got, err)
	}
	if _, err := newestRecord(t.TempDir()); err == nil {
		t.Fatal("newestRecord found a record in an empty directory")
	}
}
