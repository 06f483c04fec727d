package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rwp/internal/workload"
)

func TestRunList(t *testing.T) {
	var out, errbuf bytes.Buffer
	if code := run([]string{"-list"}, &out, &errbuf); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errbuf.String())
	}
	s := out.String()
	for _, want := range []string{"E1", "E11", "A1", "A4"} {
		if !strings.Contains(s, want) {
			t.Errorf("-list output missing %q:\n%s", want, s)
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"bad flag", []string{"-nope"}, 2},
		{"bad scale", []string{"-scale", "medium"}, 2},
		{"unknown experiment", []string{"-exp", "E99", "-scale", "quick"}, 2},
	} {
		var out, errbuf bytes.Buffer
		if code := run(tc.args, &out, &errbuf); code != tc.want {
			t.Errorf("%s: run = %d, want %d (stderr: %s)", tc.name, code, tc.want, errbuf.String())
		}
	}
}

// TestRunSingleExperiment exercises the whole wiring — engine, suite,
// table render, CSV output, result cache, run journals — on a small
// real experiment slice. The cold table lists its rows in suite order,
// and a rerun against the warm -cache-dir executes nothing and prints
// the same table; a cold rerun at another -j writes the same journals
// into its -metrics-dir, byte for byte. The slice has ten benchmarks,
// eight of them cheap: a map of two often keeps its insertion order, so
// a table ranged from one would pass over two by chance.
func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	benches := []string{"xalancbmk", "mcf", "tonto", "povray", "namd", "hmmer", "h264ref", "gromacs", "gamess", "calculix"}
	var inSuite []string
	for _, name := range workload.Names() {
		if slices.Contains(benches, name) {
			inSuite = append(inSuite, name)
		}
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	exp := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		var out, errbuf bytes.Buffer
		args := append([]string{"-exp", "E3", "-scale", "quick", "-benches", strings.Join(benches, ",")}, extra...)
		if code := run(args, &out, &errbuf); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, errbuf.String())
		}
		return out.String(), errbuf.String()
	}

	cold, errs := exp("-j", "4", "-csv", filepath.Join(dir, "csv"), "-cache-dir", cacheDir,
		"-metrics-dir", filepath.Join(dir, "m4"))
	if rows := tableRows(cold); !slices.Equal(rows, inSuite) {
		t.Errorf("table rows %v, want the suite order %v:\n%s", rows, inSuite, cold)
	}
	if !strings.Contains(errs, "engine:") || strings.Contains(errs, " executed=0 ") {
		t.Errorf("cold run: engine summary missing or nothing executed:\n%s", errs)
	}
	if _, err := os.Stat(filepath.Join(dir, "csv", "e3.csv")); err != nil {
		t.Errorf("-csv: %v", err)
	}

	warm, errs := exp("-j", "4", "-cache-dir", cacheDir)
	if !strings.Contains(errs, " executed=0 ") {
		t.Errorf("warm-cache run re-executed jobs:\n%s", errs)
	}
	if warm != cold {
		t.Errorf("warm-cache table differs from the cold run's:\n%s\nvs\n%s", warm, cold)
	}

	exp("-j", "1", "-metrics-dir", filepath.Join(dir, "m1"))
	journals, err := filepath.Glob(filepath.Join(dir, "m4", "*.jsonl"))
	if err != nil || len(journals) == 0 {
		t.Fatalf("-metrics-dir wrote no journals (err %v)", err)
	}
	for _, j4 := range journals {
		j1 := filepath.Join(dir, "m1", filepath.Base(j4))
		a, err := os.ReadFile(j4)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(j1); err != nil || !bytes.Equal(a, b) {
			t.Errorf("journal %s differs between -j 4 and -j 1 (err %v)", filepath.Base(j4), err)
		}
	}
}

// tableRows returns the first column of a table's body: the lines
// between its two dashed rules.
func tableRows(table string) []string {
	var rows []string
	rules := 0
	for _, line := range strings.Split(table, "\n") {
		switch {
		case strings.HasPrefix(line, "---"):
			rules++
		case rules == 1 && line != "":
			rows = append(rows, strings.Fields(line)[0])
		}
	}
	return rows
}
