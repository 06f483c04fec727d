package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
	"rwp/internal/probe"
)

// clusterOut runs the real flag surface and returns stdout, failing the
// test on a nonzero exit.
func clusterOut(t *testing.T, args ...string) string {
	t.Helper()
	var out, errbuf bytes.Buffer
	if code := run(args, &out, &errbuf); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errbuf.String())
	}
	return out.String()
}

// baseArgs is the shared selftest geometry: small enough to be quick,
// large enough that the RWP policy retargets.
func baseArgs(extra ...string) []string {
	args := []string{"-selftest", "8000", "-sets", "256", "-ways", "4",
		"-shards", "4", "-interval", "16", "-profile", "mcf", "-ring-shards", "16"}
	return append(args, extra...)
}

// TestSelftestDeterministic pins the cluster acceptance criterion: the
// merged stats JSON is byte-identical across reruns, pipeline depths,
// ring shard counts, and node counts — the ring only moves whole set
// ranges between nodes, it never changes what any set observes.
func TestSelftestDeterministic(t *testing.T) {
	base := clusterOut(t, baseArgs()...)
	if !strings.Contains(base, "\"Retargets\"") || strings.Contains(base, "\"Retargets\": 0,") {
		t.Fatalf("selftest output shows no retargets:\n%s", base)
	}
	for _, extra := range [][]string{
		{},
		{"-pipeline", "7"},
		{"-ring-shards", "32"},
		{"-nodes", "1"},
		{"-nodes", "5"},
	} {
		if got := clusterOut(t, baseArgs(extra...)...); got != base {
			t.Errorf("selftest output differs for %v:\n%s\nvs base:\n%s", extra, got, base)
		}
	}
}

// TestSelftestMatchesSingleNode replays the same seeded stream against
// one local cache — built the way `rwpserve -selftest` builds it — and
// demands the 3-node merged document equal it byte for byte: the
// cluster is a partitioning of the single-node run, not an
// approximation of it. adv:scan is the profile whose keys the backing
// store does not have.
func TestSelftestMatchesSingleNode(t *testing.T) {
	for _, profile := range []string{"mcf", loadgen.AdvScan} {
		got := clusterOut(t, baseArgs("-profile", profile)...)

		cfg := live.DefaultConfig()
		cfg.Sets, cfg.Ways, cfg.Shards = 256, 4, 4
		cfg.RWP.Interval = 16 // baseArgs' -interval
		cfg.Loader = loadgen.AbsentLoader(0)
		c, err := live.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := loadgen.NewStream(profile, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		loadgen.Run(c, g, 8000)
		want, err := c.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: cluster merged doc differs from single-node doc:\n%s\nvs\n%s", profile, got, want)
		}
	}
}

// TestWindowsOutJournal: -windows-out produces a parseable shard-window
// journal that is byte-identical across reruns, and — the journal being
// streamed as windows close, a function of the ops routed so far and
// nothing later — the journal of a run is, through its last whole
// window, a byte prefix of the journal of a ten times longer run of the
// same stream.
func TestWindowsOutJournal(t *testing.T) {
	dir := t.TempDir()
	journal := func(name string, args ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		clusterOut(t, append(args, "-windows-out", path)...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	managed := []string{"-manager", "-window", "512", "-hot", "64", "-cold", "8"}

	first := journal("windows.jsonl", baseArgs(managed...)...)
	desc, windowOps, ws, err := probe.ReadShardWindows(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("journal does not parse: %v", err)
	}
	if len(ws) == 0 || windowOps != 512 {
		t.Fatalf("journal desc=%q windowOps=%d windows=%d, want 512-op windows", desc, windowOps, len(ws))
	}
	if second := journal("windows2.jsonl", baseArgs(managed...)...); !bytes.Equal(first, second) {
		t.Error("windows journal differs across reruns")
	}

	// 8000 ops are 15 whole 512-op windows and a tail: the header and the
	// 15 x 16 shard records are where the 80000-op journal starts too.
	long := journal("windows-long.jsonl", append(baseArgs(managed...), "-selftest", "80000")...)
	whole := bytes.SplitAfterN(first, []byte("\n"), 1+15*16+1)
	prefix := bytes.Join(whole[:1+15*16], nil)
	if len(whole) != 1+15*16+1 || !bytes.HasPrefix(long, prefix) {
		t.Errorf("the %d whole-window lines of the 8000-op journal are not a prefix of the 80000-op journal", len(whole)-1)
	}
	if bytes.HasPrefix(long, first) {
		t.Error("the 8000-op journal's partial tail window also opens the 80000-op journal: prefix check is vacuous")
	}

	// Without -manager the journal is still written, sampled at -window.
	unmanaged := journal("windows3.jsonl", baseArgs("-window", "512")...)
	if _, windowOps, ws, err = probe.ReadShardWindows(bytes.NewReader(unmanaged)); err != nil || windowOps != 512 || len(ws) == 0 {
		t.Fatalf("manager-less journal: windowOps=%d windows=%d err=%v", windowOps, len(ws), err)
	}

	// The -connect leg streams one too, manager and all.
	addrs := startServers(t, 2)
	wired := journal("windows-connect.jsonl", "-selftest", "4000", "-sets", "256", "-ways", "4",
		"-shards", "4", "-ring-shards", "16", "-connect", strings.Join(addrs, ","),
		"-manager", "-window", "512", "-hot", "64", "-cold", "8")
	if _, windowOps, ws, err = probe.ReadShardWindows(bytes.NewReader(wired)); err != nil || windowOps != 512 || len(ws) != 8*16 {
		t.Errorf("-connect journal: windowOps=%d records=%d err=%v, want 8 windows x 16 shards of 512 ops", windowOps, len(ws), err)
	}
}

// TestWindowsOutUnwritable: the journal file is created before the
// first op is routed, so a path that cannot be written fails the run up
// front (exit 1, no stats document) rather than after it; and a usage
// error is refused before the file is touched.
func TestWindowsOutUnwritable(t *testing.T) {
	dir := t.TempDir()
	var out, errbuf bytes.Buffer
	bad := filepath.Join(dir, "no-such-dir", "windows.jsonl")
	if code := run(baseArgs("-windows-out", bad), &out, &errbuf); code != 1 {
		t.Fatalf("unwritable -windows-out: run = %d, want 1 (stderr: %s)", code, errbuf.String())
	}
	if out.Len() != 0 || !strings.Contains(errbuf.String(), "no-such-dir") {
		t.Errorf("unwritable -windows-out: stdout %q, stderr %q; want no document and the path named", out.String(), errbuf.String())
	}
	stray := filepath.Join(dir, "stray.jsonl")
	if code := run(baseArgs("-ring-shards", "3", "-windows-out", stray), &out, &errbuf); code != 2 {
		t.Fatalf("-ring-shards 3 with -sets 256: run = %d, want 2", code)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("a refused run left %s behind (stat err: %v)", stray, err)
	}
}

// TestConnectMode routes the selftest against two real TCP servers
// (live caches behind proto.ServeConn, exactly what rwpserve -tcp
// runs) and checks the per-node stats come back.
func TestConnectMode(t *testing.T) {
	addrs := startServers(t, 2)
	windows := filepath.Join(t.TempDir(), "windows.jsonl")
	out := clusterOut(t, "-selftest", "4000", "-sets", "256", "-ways", "4",
		"-shards", "4", "-ring-shards", "16", "-connect", strings.Join(addrs, ","),
		"-window", "512", "-windows-out", windows)
	f, err := os.Open(windows)
	if err != nil {
		t.Fatalf("-connect dropped -windows-out: %v", err)
	}
	defer f.Close()
	if _, windowOps, ws, err := probe.ReadShardWindows(f); err != nil || windowOps != 512 || len(ws) == 0 {
		t.Errorf("-connect journal: windowOps=%d windows=%d err=%v, want 512-op windows", windowOps, len(ws), err)
	}
	for _, addr := range addrs {
		if !strings.Contains(out, "== node "+addr+" ==") {
			t.Errorf("output missing stats for node %s:\n%s", addr, out)
		}
	}
	if !strings.Contains(out, "\"GetHits\"") {
		t.Errorf("output has no stats documents:\n%s", out)
	}
}

// startServers spins n TCP listeners speaking proto.ServeConn over
// live caches — exactly what rwpserve -tcp runs — and returns their
// addresses. Each accepted connection gets a fresh cache, so every run
// against the same addresses starts cold.
func startServers(t *testing.T, n int) []string {
	t.Helper()
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = 256, 4, 4
	cfg.Loader = loadgen.Loader(0)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				c, err := live.New(cfg)
				if err != nil {
					conn.Close()
					return
				}
				go proto.ServeConn(conn, c)
			}
		}()
	}
	return addrs
}

// TestConnectTrimsAddresses: the -connect list is trimmed once, so
// spaces after the commas name the same ring nodes, dial the same
// servers and print the same headers as the bare list.
func TestConnectTrimsAddresses(t *testing.T) {
	addrs := startServers(t, 2)
	out := func(list string) string {
		return clusterOut(t, "-selftest", "4000", "-sets", "256", "-ways", "4",
			"-shards", "4", "-ring-shards", "16", "-connect", list)
	}
	bare := out(strings.Join(addrs, ","))
	if spaced := out(" " + strings.Join(addrs, " , ") + " "); spaced != bare {
		t.Errorf("-connect with spaces differs from the bare list:\n%s\nvs\n%s", spaced, bare)
	}
}

// TestConnectManaged runs the manager against real TCP servers: replica
// adds must be satisfied over the wire, warm (SNAP/RESTORE) every time
// — the servers support the range ops, so the reset fallback should
// never fire.
func TestConnectManaged(t *testing.T) {
	addrs := startServers(t, 3)
	out := clusterOut(t, "-selftest", "8000", "-sets", "256", "-ways", "4",
		"-shards", "4", "-ring-shards", "16", "-connect", strings.Join(addrs, ","),
		"-manager", "-window", "512", "-hot", "24", "-cold", "4")
	if !strings.Contains(out, "== catchup ==") {
		t.Fatalf("managed connect output missing catchup summary:\n%s", out)
	}
	var cmds, snaps, resets int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "commands=") {
			if _, err := fmt.Sscanf(line, "commands=%d snaps=%d resets=%d", &cmds, &snaps, &resets); err != nil {
				t.Fatalf("catchup line %q does not parse: %v", line, err)
			}
		}
	}
	if cmds == 0 {
		t.Fatal("manager applied no replica commands; test exercised nothing")
	}
	if snaps == 0 || resets != 0 {
		t.Errorf("wire catch-up: snaps=%d resets=%d, want all adds warm", snaps, resets)
	}
}

// TestFlagSurface pins the CLI's flag set against a golden list, so a
// flag added or resurrected shows up as a test diff (and ROADMAP's flag
// count is this list's length, not a hand count). No name contains
// "bench": bench/ is the one measuring instrument.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"cold", "connect", "hot", "in", "interval", "manager",
		"no-loader", "nodes", "pipeline", "policy", "profile",
		"ring-shards", "seed", "selftest", "sets", "shards", "value-size",
		"ways", "window", "windows-out",
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
		t.Errorf("rwpcluster -h lists %d flags:\n%q\nwant %d:\n%q", len(got), got, len(want), want)
	}
}

// TestBadArgs pins the flag-surface failure modes.
func TestBadArgs(t *testing.T) {
	journal, _ := recordJournal(t)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"bad flag", []string{"-nope"}, 2},
		{"positional args", []string{"-selftest", "10", "extra"}, 2},
		{"nothing to do", []string{}, 2},
		{"bad policy", []string{"-selftest", "10", "-policy", "bogus"}, 2},
		{"ring shards do not divide sets", []string{"-selftest", "10", "-ring-shards", "3"}, 2},
		{"too many ways", []string{"-selftest", "10", "-ways", "300"}, 2},
		{"bad manager window", []string{"-selftest", "10", "-manager", "-window", "0"}, 2},
		{"bad profile", []string{"-selftest", "10", "-profile", "nope"}, 2},
		{"bad adversarial profile", []string{"-selftest", "10", "-profile", "adv:nope"}, 2},
		{"deleted -vnodes", []string{"-selftest", "10", "-vnodes", "8"}, 2},
		{"deleted -hot-p99", []string{"-selftest", "10", "-manager", "-hot-p99", "4"}, 2},
		{"deleted -max-replicas", []string{"-selftest", "10", "-manager", "-max-replicas", "2"}, 2},
		{"deleted -journal-dir", []string{"-selftest", "10", "-journal-dir", "jd"}, 2},
		{"deleted -mode", []string{"-selftest", "10", "-mode", "pipe"}, 2},
		{"-connect with -nodes", []string{"-selftest", "10", "-connect", "127.0.0.1:1", "-nodes", "2"}, 2},
		{"-connect trailing comma", []string{"-selftest", "10", "-connect", "127.0.0.1:1,"}, 2},
		{"-connect blank entry", []string{"-selftest", "10", "-connect", "127.0.0.1:1, ,127.0.0.1:2"}, 2},
		{"-connect blank", []string{"-selftest", "10", "-connect", " "}, 2},
		{"-in with -selftest", []string{"-in", journal, "-selftest", "10"}, 2},
		{"-in with -profile", []string{"-in", journal, "-profile", "mcf"}, 2},
		{"-in with -seed", []string{"-in", journal, "-seed", "0"}, 2},
		{"-in with deleted -vnodes", []string{"-in", journal, "-vnodes", "8"}, 2},
		{"-in with -record", []string{"-in", journal, "-record", "x.jsonl"}, 2},
		{"-in missing journal", []string{"-in", filepath.Join(t.TempDir(), "nope.jsonl")}, 1},
	} {
		var out, errbuf bytes.Buffer
		if code := run(tc.args, &out, &errbuf); code != tc.want {
			t.Errorf("%s: run = %d, want %d (stderr: %s)", tc.name, code, tc.want, errbuf.String())
		}
	}
}

// recordJournal drives a seeded stream through one recorded cache and
// returns the journal path plus the recorded run's stats document.
func recordJournal(t *testing.T) (journal string, stats []byte) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "reqs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := probe.NewReqLogWriter(f, "test journal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = 128, 4, 4
	cfg.RWP.Interval = 32
	cfg.Loader = loadgen.Loader(8)
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

// TestReplayEquivalence: a recorded journal replayed under -in through
// an in-process cluster, at two node counts, merges to the recorded
// single-cache run's stats document byte for byte.
func TestReplayEquivalence(t *testing.T) {
	journal, want := recordJournal(t)
	geometry := []string{"-in", journal, "-sets", "128", "-ways", "4", "-shards", "4",
		"-interval", "32", "-value-size", "8", "-ring-shards", "16"}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"3 nodes", []string{"-nodes", "3"}},
		{"2 nodes", []string{"-nodes", "2"}},
	} {
		if got := clusterOut(t, append(geometry, tc.args...)...); got != string(want) {
			t.Errorf("%s: replayed stats differ from the recorded run:\n%s\nvs\n%s", tc.name, got, want)
		}
	}
}
