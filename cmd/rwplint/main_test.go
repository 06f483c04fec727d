package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// The working directory of these tests is cmd/rwplint, so the fixture
// package that violates the lock rules (lockheld, lockpair) sits two
// levels up.
const fixtureDir = "../../internal/analysis/testdata/locks"

// TestRunFindingsOnFixture checks the exit code and that every finding
// line is rooted at the module, so editors can jump to it.
func TestRunFindingsOnFixture(t *testing.T) {
	var out, errbuf bytes.Buffer
	if code := run([]string{fixtureDir}, &out, &errbuf); code != 1 {
		t.Fatalf("run(fixture) = %d, want 1; stderr: %s", code, errbuf.String())
	}
	s := out.String()
	if strings.TrimSpace(s) == "" {
		t.Fatalf("run(fixture) printed no findings")
	}
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if !strings.HasPrefix(line, "internal/analysis/testdata/locks/bad.go:") {
			t.Errorf("finding line not rooted at the module: %q", line)
		}
	}
}

// TestRunFindingsOnLocksFixture checks that each lock rule the fixture
// violates reports a finding.
func TestRunFindingsOnLocksFixture(t *testing.T) {
	var out, errbuf bytes.Buffer
	if code := run([]string{fixtureDir}, &out, &errbuf); code != 1 {
		t.Fatalf("run(locks fixture) = %d, want 1; stderr: %s", code, errbuf.String())
	}
	s := out.String()
	for _, rule := range []string{"lockheld", "lockpair"} {
		if !strings.Contains(s, " "+rule+": ") {
			t.Errorf("fixture finding for rule %s missing:\n%s", rule, s)
		}
	}
}

func TestRunReport(t *testing.T) {
	var out, errbuf bytes.Buffer
	if code := run([]string{"-report", fixtureDir}, &out, &errbuf); code != 1 {
		t.Fatalf("run(-report locks fixture) = %d, want 1; stderr: %s", code, errbuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "rwplint report:") {
		t.Fatalf("report header missing:\n%s", s)
	}
	// Every suite rule appears, zeros included; the violated ones show
	// non-zero finding counts.
	for _, rule := range []string{"lockheld", "lockpair", "directive"} {
		if !strings.Contains(s, rule) {
			t.Errorf("report missing rule row %q:\n%s", rule, s)
		}
	}
	for _, row := range strings.Split(s, "\n") {
		fields := strings.Fields(row)
		if len(fields) == 3 && fields[0] == "lockheld" && fields[1] == "0" {
			t.Errorf("lockheld row shows zero findings on the locks fixture:\n%s", s)
		}
	}
}

func TestRunCleanPackage(t *testing.T) {
	var out, errbuf bytes.Buffer
	if code := run([]string{"../../internal/cache"}, &out, &errbuf); code != 0 {
		t.Fatalf("run(internal/cache) = %d\nstdout: %s\nstderr: %s", code, out.String(), errbuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean package produced findings:\n%s", out.String())
	}
}

func TestRunVerbose(t *testing.T) {
	// internal/probe carries two justified lockheld suppressions (the
	// request journal's writes under its ordering lock): -v must list
	// them and print the summary line, and still exit 0.
	var out, errbuf bytes.Buffer
	if code := run([]string{"-v", "../../internal/probe"}, &out, &errbuf); code != 0 {
		t.Fatalf("run(-v internal/probe) = %d\nstdout: %s\nstderr: %s", code, out.String(), errbuf.String())
	}
	s := out.String()
	if !strings.Contains(s, " lockheld: suppressed: ") {
		t.Errorf("-v should list internal/probe's suppressed findings:\n%s", s)
	}
	if !strings.Contains(s, "rwplint:") || !strings.Contains(s, "packages") {
		t.Errorf("-v summary line missing:\n%s", s)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errbuf bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errbuf); code != 2 {
		t.Errorf("bad flag: run = %d, want 2", code)
	}
	out.Reset()
	errbuf.Reset()
	if code := run([]string{"/nonexistent-dir-xyz"}, &out, &errbuf); code != 2 {
		t.Errorf("bad dir: run = %d, want 2 (stderr: %s)", code, errbuf.String())
	}
}

func TestRelPath(t *testing.T) {
	root := "/mod"
	if got := relPath(root, "/mod/internal/x.go"); got != filepath.Join("internal", "x.go") {
		t.Errorf("relPath inside root = %q", got)
	}
	if got := relPath(root, "/elsewhere/y.go"); got != filepath.Join("..", "elsewhere", "y.go") && got != "/elsewhere/y.go" {
		// Either a clean relative path or the original is acceptable;
		// what matters is that it never fabricates an absolute-looking
		// relative path.
		t.Errorf("relPath outside root = %q", got)
	}
}
