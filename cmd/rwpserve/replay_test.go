package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// replayGeometry is the cache both the recorded run and every replay
// below are built at.
func replayGeometry() []string {
	return []string{"-sets", "128", "-ways", "4", "-interval", "32", "-value-size", "8"}
}

// recordRun records a seeded selftest through -record (and -snapshot)
// and returns the journal path plus the recorded run's stats document —
// the ground truth every replay below must reproduce byte for byte.
func recordRun(t *testing.T) (journal string, stats string) {
	t.Helper()
	dir := t.TempDir()
	journal = filepath.Join(dir, "reqs.jsonl")
	stats, errb, code := runCLI(t, append(replayGeometry(), "-selftest", "4000", "-profile", "mcf",
		"-record", journal, "-snapshot", filepath.Join(dir, "recorded.snap"))...)
	if code != 0 {
		t.Fatalf("recorded run = %d, stderr: %s", code, errb)
	}
	return journal, stats
}

// TestReplayEquivalence: recording leaves a run's stats document as it
// is, and the recorded journal replayed under -in through either
// transport, at several frame shapes, reproduces the
// recorded run's stats document and its snapshot, byte for byte.
func TestReplayEquivalence(t *testing.T) {
	journal, want := recordRun(t)
	// Capture does not perturb the run it records.
	plain, errb, code := runCLI(t, append(replayGeometry(), "-selftest", "4000", "-profile", "mcf")...)
	if code != 0 {
		t.Fatalf("unrecorded run = %d, stderr: %s", code, errb)
	}
	if plain != want {
		t.Errorf("-record perturbed the run: recorded stats differ from the unrecorded run's:\n%s\nvs\n%s", want, plain)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"direct", replayGeometry()},
		{"tcp", append(replayGeometry(), "-transport", "tcp", "-batch", "16", "-pipeline", "4")},
		{"tcp-degenerate", append(replayGeometry(), "-transport", "tcp", "-batch", "1", "-pipeline", "1")},
	} {
		got, errb, code := runCLI(t, append([]string{"-in", journal}, tc.args...)...)
		if code != 0 {
			t.Fatalf("%s: run = %d, stderr: %s", tc.name, code, errb)
		}
		if got != want {
			t.Errorf("%s: replayed stats differ from the recorded run:\n%s\nvs\n%s", tc.name, got, want)
		}
	}

	replayed := filepath.Join(t.TempDir(), "replayed.snap")
	if _, errb, code := runCLI(t, append(replayGeometry(), "-in", journal, "-snapshot", replayed)...); code != 0 {
		t.Fatalf("replay with -snapshot = %d, stderr: %s", code, errb)
	}
	a, err := os.ReadFile(filepath.Join(filepath.Dir(journal), "recorded.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(replayed); err != nil || !bytes.Equal(a, b) {
		t.Errorf("replayed snapshot differs from the recorded run's (err %v)", err)
	}
}

// TestReplayCarriesTelemetry: the replayed document exposes the
// observability fields (retarget direction split, cost histogram).
func TestReplayCarriesTelemetry(t *testing.T) {
	journal, _ := recordRun(t)
	out, errb, code := runCLI(t, append(replayGeometry(), "-in", journal)...)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"\"RetargetUp\"", "\"RetargetDown\"", "\"RetargetSame\"", "\"CostHist\""} {
		if !strings.Contains(out, want) {
			t.Errorf("replayed stats missing %s:\n%s", want, out)
		}
	}
}

// TestReRecordByteIdentity: replaying with -record reproduces the
// input journal exactly — the capture clock is op order and the desc is
// the geometry, so a journal rwpserve wrote is a fixed point of
// record→replay→record.
func TestReRecordByteIdentity(t *testing.T) {
	journal, _ := recordRun(t)
	want, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "rerec.jsonl")
	if _, errb, code := runCLI(t, append(replayGeometry(), "-in", journal, "-record", out)...); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("re-recorded journal differs from input")
	}
}

// TestReplayRejectsCorruptJournal: a truncated journal fails loudly
// (exit 1, no document) rather than replaying a prefix.
func TestReplayRejectsCorruptJournal(t *testing.T) {
	journal, _ := recordRun(t)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.jsonl")
	if err := os.WriteFile(cut, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	out, errb, code := runCLI(t, append(replayGeometry(), "-in", cut)...)
	if code != 1 || out != "" {
		t.Fatalf("truncated journal: run = %d with %d bytes of output, want 1 and none (stderr: %s)", code, len(out), errb)
	}
}

// TestReplayFlagErrors: -in refuses the generated-source flags and
// snapshot cadence with a usage error, and a missing journal with exit 1.
func TestReplayFlagErrors(t *testing.T) {
	journal, _ := recordRun(t)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"-in with -selftest", []string{"-in", journal, "-selftest", "10"}, 2},
		{"-in with -profile", []string{"-in", journal, "-profile", "mcf"}, 2},
		{"-in with -seed", []string{"-in", journal, "-seed", "0"}, 2},
		{"-in with -selftest-skip", []string{"-in", journal, "-selftest-skip", "0"}, 2},
		{"-in with -snap-every", []string{"-in", journal, "-snapshot", "x.snap", "-snap-every", "10"}, 2},
		{"-in positional", []string{"-in", journal, "extra"}, 2},
		{"-in bad transport", []string{"-in", journal, "-transport", "smoke-signal"}, 2},
		{"-in http transport", []string{"-in", journal, "-transport", "http"}, 2},
		{"-in bad geometry", []string{"-in", journal, "-sets", "100"}, 2},
		{"-in missing journal", []string{"-in", filepath.Join(t.TempDir(), "nope.jsonl")}, 1},
	} {
		var out, errbuf bytes.Buffer
		if code := run(context.Background(), tc.args, &out, &errbuf); code != tc.want {
			t.Errorf("%s: run = %d, want %d (stderr: %s)", tc.name, code, tc.want, errbuf.String())
		}
	}
}
