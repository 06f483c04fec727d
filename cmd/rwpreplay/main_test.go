package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/probe"
)

// recordRun drives a seeded loadgen stream against a recorded cache
// and returns the journal path plus the original run's stats document
// — the ground truth every replay below must reproduce byte for byte.
func recordRun(t *testing.T, shards int) (journal string, stats []byte) {
	t.Helper()
	cfg := testConfig(shards)
	f, err := os.Create(filepath.Join(t.TempDir(), "reqs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := probe.NewReqLogWriter(f, "test journal")
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReqLog = log
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadgen.New("mcf", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.ApplyAll(c, loadgen.Take(g, 4000))
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	doc, err := c.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return f.Name(), doc
}

func testConfig(shards int) live.Config {
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = 128, 4, shards
	cfg.RWP.Interval = 32
	cfg.Loader = loadgen.Loader(8)
	return cfg
}

// geometry mirrors testConfig as rwpreplay flags.
func geometry(shards string) []string {
	return []string{"-sets", "128", "-ways", "4", "-shards", shards,
		"-interval", "32", "-value-size", "8"}
}

func runReplay(t *testing.T, args []string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errb.String())
	}
	return out.String()
}

// TestReplayEquivalence is the tentpole's differential proof: a
// recorded journal replayed through every transport, at several shard
// counts, paced or full-speed, reproduces the original run's stats
// document byte for byte.
func TestReplayEquivalence(t *testing.T) {
	journal, want := recordRun(t, 4)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"direct", geometry("4")},
		{"direct-shards-1", geometry("1")},
		{"direct-shards-16", geometry("16")},
		{"tcp", append(geometry("4"), "-transport", "tcp", "-batch", "16", "-pipeline", "4")},
		{"tcp-degenerate", append(geometry("8"), "-transport", "tcp", "-batch", "1", "-pipeline", "1")},
		{"cluster", append(geometry("4"), "-transport", "cluster", "-nodes", "3", "-ring-shards", "16")},
		{"cluster-pipe", append(geometry("4"), "-transport", "cluster", "-nodes", "2", "-ring-shards", "16", "-mode", "pipe")},
		{"paced", append(geometry("4"), "-rate", "2000000")},
	} {
		got := runReplay(t, append([]string{"-in", journal}, tc.args...))
		if got != string(want) {
			t.Errorf("%s: replayed stats differ from the recorded run:\n%s\nvs\n%s", tc.name, got, want)
		}
	}
}

// TestReRecordByteIdentity: replaying with -record reproduces the
// input journal exactly, at any shard count — the capture clock is op
// order, so a journal is a fixed point of record→replay→record.
func TestReRecordByteIdentity(t *testing.T) {
	journal, _ := recordRun(t, 4)
	want, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []string{"1", "4", "16"} {
		out := filepath.Join(t.TempDir(), "rerec.jsonl")
		runReplay(t, append([]string{"-in", journal, "-record", out}, geometry(shards)...))
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shards=%s: re-recorded journal differs from input", shards)
		}
	}
}

// TestReplayCarriesTelemetry: the replayed document exposes the new
// observability fields (retarget direction split, cost histogram).
func TestReplayCarriesTelemetry(t *testing.T) {
	journal, _ := recordRun(t, 4)
	out := runReplay(t, append([]string{"-in", journal}, geometry("4")...))
	for _, want := range []string{"\"RetargetUp\"", "\"RetargetDown\"", "\"RetargetSame\"", "\"CostHist\""} {
		if !strings.Contains(out, want) {
			t.Errorf("replayed stats missing %s:\n%s", want, out)
		}
	}
}

// TestFlagSurface pins the CLI's flag set against a golden list, as
// rwpserve's and rwpcluster's tests of the same name do.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"batch", "in", "interval", "mode", "no-loader", "nodes", "pipeline",
		"policy", "rate", "record", "ring-shards", "sets", "shards",
		"transport", "value-size", "ways",
	}
	var out, errbuf bytes.Buffer
	if code := run([]string{"-h"}, &out, &errbuf); code != 2 {
		t.Fatalf("run(-h) = %d, want 2", code)
	}
	var got []string
	for _, line := range strings.Split(errbuf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("rwpreplay -h lists %d flags:\n%q\nwant %d:\n%q", len(got), got, len(want), want)
	}
}

func TestRunFlagErrors(t *testing.T) {
	journal, _ := recordRun(t, 4)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no input", nil, 2},
		{"bad flag", []string{"-nope"}, 2},
		{"positional", []string{"-in", journal, "extra"}, 2},
		{"bad transport", []string{"-in", journal, "-transport", "smoke-signal"}, 2},
		{"http transport", []string{"-in", journal, "-transport", "http"}, 2},
		{"deleted -vnodes", []string{"-in", journal, "-transport", "cluster", "-vnodes", "8"}, 2},
		{"cluster re-record", []string{"-in", journal, "-transport", "cluster", "-record", "x.jsonl"}, 2},
		{"missing journal", []string{"-in", filepath.Join(t.TempDir(), "nope.jsonl")}, 1},
		{"bad geometry", []string{"-in", journal, "-sets", "100"}, 1},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.want {
			t.Errorf("%s: run = %d, want %d (stderr: %s)", tc.name, code, tc.want, errb.String())
		}
	}
}

// TestReplayRejectsCorruptJournal: a truncated journal fails loudly
// rather than replaying a prefix.
func TestReplayRejectsCorruptJournal(t *testing.T) {
	journal, _ := recordRun(t, 4)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.jsonl")
	if err := os.WriteFile(cut, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run(append([]string{"-in", cut}, geometry("4")...), &out, &errb); code != 1 {
		t.Fatalf("truncated journal: run = %d, want 1 (stderr: %s)", code, errb.String())
	}
}
