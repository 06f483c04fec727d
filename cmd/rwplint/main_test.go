package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// The working directory of these tests is cmd/rwplint, so the fixture
// packages that violate the rules sit two levels up.
const (
	fixtureDir = "../../internal/analysis/testdata/stats"
	// locksDir violates the concurrency rules: lockheld, lockpair.
	locksDir = "../../internal/analysis/testdata/locks"
)

func TestRunFindingsOnFixture(t *testing.T) {
	var out, errbuf bytes.Buffer
	if code := run([]string{fixtureDir}, &out, &errbuf); code != 1 {
		t.Fatalf("run(fixture) = %d, want 1; stderr: %s", code, errbuf.String())
	}
	s := out.String()
	for _, rule := range []string{"norand", "nowallclock", "maporder", "floateq", "ctrwidth"} {
		if !strings.Contains(s, " "+rule+": ") {
			t.Errorf("fixture finding for rule %s missing:\n%s", rule, s)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if !strings.HasPrefix(line, "internal/analysis/testdata/stats/bad.go:") {
			t.Errorf("finding line not rooted at the module: %q", line)
		}
	}
}

func TestRunFindingsOnLocksFixture(t *testing.T) {
	var out, errbuf bytes.Buffer
	if code := run([]string{locksDir}, &out, &errbuf); code != 1 {
		t.Fatalf("run(locks fixture) = %d, want 1; stderr: %s", code, errbuf.String())
	}
	s := out.String()
	for _, rule := range []string{"lockheld", "lockpair"} {
		if !strings.Contains(s, " "+rule+": ") {
			t.Errorf("fixture finding for rule %s missing:\n%s", rule, s)
		}
	}
}

func TestRunJSONByteStable(t *testing.T) {
	var first, second, errbuf bytes.Buffer
	if code := run([]string{"-json", locksDir}, &first, &errbuf); code != 1 {
		t.Fatalf("run(-json locks fixture) = %d, want 1; stderr: %s", code, errbuf.String())
	}
	if code := run([]string{"-json", locksDir}, &second, &errbuf); code != 1 {
		t.Fatalf("second run(-json) = %d, want 1", code)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("-json output not byte-stable across runs:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}

	lines := strings.Split(strings.TrimSpace(first.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("expected at least one finding per rule, got %d JSON lines", len(lines))
	}
	var prev struct {
		file      string
		line, col int
	}
	for i, l := range lines {
		// Canonical form: keys in alphabetical order, one object per
		// line, no indentation.
		if !strings.HasPrefix(l, `{"col":`) || !strings.Contains(l, `"file":`) {
			t.Errorf("line %d not canonical (want alphabetical keys starting with col): %q", i, l)
		}
		var f struct {
			Col        int    `json:"col"`
			File       string `json:"file"`
			Line       int    `json:"line"`
			Message    string `json:"message"`
			Rule       string `json:"rule"`
			Suppressed bool   `json:"suppressed"`
		}
		if err := json.Unmarshal([]byte(l), &f); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, l)
		}
		if f.File == "" || f.Line == 0 || f.Rule == "" || f.Message == "" {
			t.Errorf("line %d missing fields: %+v", i, f)
		}
		if i > 0 && f.File == prev.file && (f.Line < prev.line || (f.Line == prev.line && f.Col < prev.col)) {
			t.Errorf("findings not sorted at line %d: %d:%d after %d:%d", i, f.Line, f.Col, prev.line, prev.col)
		}
		prev.file, prev.line, prev.col = f.File, f.Line, f.Col
	}
}

func TestRunJSONIncludesSuppressed(t *testing.T) {
	// The live package carries justified suppressions; -json must emit
	// them marked, not hide them, while still exiting 0.
	var out, errbuf bytes.Buffer
	if code := run([]string{"-json", "../../internal/live"}, &out, &errbuf); code != 0 {
		t.Fatalf("run(-json internal/live) = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errbuf.String())
	}
	if !strings.Contains(out.String(), `"suppressed":true`) {
		t.Errorf("-json output on internal/live should contain suppressed findings:\n%s", out.String())
	}
}

func TestRunReport(t *testing.T) {
	var out, errbuf bytes.Buffer
	if code := run([]string{"-report", locksDir}, &out, &errbuf); code != 1 {
		t.Fatalf("run(-report locks fixture) = %d, want 1; stderr: %s", code, errbuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "rwplint report:") {
		t.Fatalf("report header missing:\n%s", s)
	}
	// Every suite rule appears, zeros included; the violated ones show
	// non-zero finding counts.
	for _, rule := range []string{"norand", "nowallclock", "maporder", "floateq", "ctrwidth", "lockheld", "lockpair", "directive"} {
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
	// The live package suppresses nothing today, but -v must always
	// print the summary line, so lint a clean package verbosely.
	var out, errbuf bytes.Buffer
	if code := run([]string{"-v", "../../internal/live"}, &out, &errbuf); code != 0 {
		t.Fatalf("run(-v internal/live) = %d\nstdout: %s\nstderr: %s", code, out.String(), errbuf.String())
	}
	if !strings.Contains(out.String(), "rwplint:") || !strings.Contains(out.String(), "packages") {
		t.Errorf("-v summary line missing:\n%s", out.String())
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
