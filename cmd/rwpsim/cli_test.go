package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rwp"
)

func TestRunList(t *testing.T) {
	var out, errbuf bytes.Buffer
	if code := run([]string{"-list"}, &out, &errbuf); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errbuf.String())
	}
	s := out.String()
	for _, want := range []string{"policies:", "rwp", "lru", "workloads", "mcf", "SENS"} {
		if !strings.Contains(s, want) {
			t.Errorf("-list output missing %q:\n%s", want, s)
		}
	}
}

func TestRunWorkload(t *testing.T) {
	var out, errbuf bytes.Buffer
	args := []string{"-workload", "mcf", "-policy", "rwp", "-warmup", "20000", "-measure", "50000"}
	if code := run(args, &out, &errbuf); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errbuf.String())
	}
	s := out.String()
	for _, want := range []string{"mcf", "policy=rwp", "IPC=", "rdMPKI=", "llcReadHit="} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunMix(t *testing.T) {
	var out, errbuf bytes.Buffer
	args := []string{"-mix", "gcc,sphinx3,povray,namd", "-policy", "lru", "-warmup", "10000", "-measure", "20000"}
	if code := run(args, &out, &errbuf); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errbuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "throughput=") {
		t.Errorf("mix output missing throughput:\n%s", s)
	}
	for _, w := range []string{"gcc", "sphinx3", "povray", "namd"} {
		if !strings.Contains(s, w) {
			t.Errorf("mix output missing per-core row for %q:\n%s", w, s)
		}
	}
}

func TestRunTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mcf.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rwp.WriteTrace(f, "mcf", 60_000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errbuf bytes.Buffer
	args := []string{"-trace", path, "-policy", "rwp", "-warmup", "10000", "-measure", "40000"}
	if code := run(args, &out, &errbuf); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errbuf.String())
	}
	if !strings.Contains(out.String(), "policy=rwp") {
		t.Errorf("trace output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no mode", nil, 2},
		{"bad flag", []string{"-nope"}, 2},
		{"bad size", []string{"-workload", "mcf", "-llc", "huge"}, 1},
		{"unknown workload", []string{"-workload", "nope", "-measure", "1000"}, 1},
		{"unknown policy", []string{"-workload", "mcf", "-policy", "nope", "-measure", "1000"}, 1},
		{"missing trace", []string{"-trace", "/nonexistent/x.trace"}, 1},
		{"bad mix", []string{"-mix", "mcf,nope", "-measure", "1000"}, 1},
		{"over-wide llc", []string{"-workload", "mcf", "-ways", "512", "-llc", "4MiB", "-measure", "1000"}, 1},
	} {
		var out, errbuf bytes.Buffer
		if code := run(tc.args, &out, &errbuf); code != tc.want {
			t.Errorf("%s: run = %d, want %d (stderr: %s)", tc.name, code, tc.want, errbuf.String())
		}
	}
}
