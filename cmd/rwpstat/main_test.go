package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rwp/internal/cache"
	"rwp/internal/probe"
	"rwp/internal/sim"
)

// writeTestJournal synthesizes a journal through the real probe codec.
func writeTestJournal(t *testing.T, path string) {
	t.Helper()
	res, err := json.Marshal(sim.Result{Workload: "mcf", Policy: "rwp", IPC: 0.875,
		ReadMPKI: 12.34, TotalMPKI: 15.5, WBPKI: 4.25, Instructions: 85_000,
		LLC: cache.Stats{Accesses: [3]uint64{2, 1, 0}, Hits: [3]uint64{2, 0, 0},
			Misses: [3]uint64{0, 1, 0}, HitsDirty: [3]uint64{1, 0, 0},
			FillsDirty: [3]uint64{0, 1, 0}, Evictions: 1, DirtyEvict: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rec := probe.NewRecorder(50_000)
	rec.Retarget(probe.RetargetEvent{Interval: 1, Target: 5, Accesses: 100_000})
	rec.IntervalEnd(probe.IntervalEvent{Index: 0, EndAccess: 50_000, Instructions: 40_000,
		Cycles: 90_000, LLCReadMisses: 700, DirtyTarget: 5, DirtyLines: 300, ValidLines: 2048})
	rec.IntervalEnd(probe.IntervalEvent{Index: 1, EndAccess: 100_000, Instructions: 85_000,
		Cycles: 170_000, LLCReadMisses: 1500, DirtyTarget: 5, DirtyLines: 450, ValidLines: 2048})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := probe.WriteJournal(f, probe.Header{Kind: "single", Desc: "mcf/rwp"}, []json.RawMessage{res}, rec); err != nil {
		t.Fatal(err)
	}
}

func TestRunSummary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "single-abc.jsonl")
	writeTestJournal(t, path)
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"mcf", "rwp", "0.875", "12.34", "mcf/rwp", "final-d"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "time series") {
		t.Error("series table rendered without -series")
	}
}

func TestRunSeriesAndDir(t *testing.T) {
	dir := t.TempDir()
	writeTestJournal(t, filepath.Join(dir, "single-abc.jsonl"))
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", dir, "-series"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "time series: mcf/rwp (window 50000 accesses)") {
		t.Fatalf("series table missing:\n%s", got)
	}
	// Interval 1's per-window deltas: 85000-40000 instructions over
	// 170000-90000 cycles = IPC 0.5625 (rendered 0.562, round-half-even);
	// read-miss delta 800.
	for _, want := range []string{"45000", "80000", "0.562", "800"} {
		if !strings.Contains(got, want) {
			t.Errorf("series missing %q:\n%s", want, got)
		}
	}
}

func TestRunDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	writeTestJournal(t, filepath.Join(dir, "b.jsonl"))
	writeTestJournal(t, filepath.Join(dir, "a.jsonl"))
	var out1, out2 bytes.Buffer
	if code := run([]string{"-dir", dir}, &out1, &out2); code != 0 {
		t.Fatal("run failed")
	}
	var again bytes.Buffer
	if code := run([]string{"-dir", dir}, &again, &out2); code != 0 {
		t.Fatal("rerun failed")
	}
	if out1.String() != again.String() {
		t.Fatal("two loads of the same directory rendered differently")
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no inputs: exit %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/x.jsonl"}, &out, &errb); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad}, &out, &errb); code != 1 {
		t.Errorf("malformed journal: exit %d, want 1", code)
	}
}

// TestRenderPinnedJournals renders the runner's pinned journals
// (internal/runner/testdata), with and without -series, against
// renderings of the same runs made by an earlier rwpstat from that
// commit's journals: a change to the journal's encoding or to how
// rwpstat reads it must leave the tables as they were.
func TestRenderPinnedJournals(t *testing.T) {
	journals, err := filepath.Glob(filepath.Join("..", "..", "internal", "runner", "testdata", "journal-*.jsonl"))
	if err != nil || len(journals) != 5 {
		t.Fatalf("pinned journals: %v (%d files, want 5)", err, len(journals))
	}
	for _, tc := range []struct {
		golden string
		flags  []string
	}{
		{"pinned.txt", nil},
		{"pinned-series.txt", []string{"-series"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run(append(tc.flags, journals...), &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", tc.golden, code, errb.String())
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("rendering differs from testdata/%s:\n%s", tc.golden, out.String())
		}
	}
}
