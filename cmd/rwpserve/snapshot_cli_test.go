package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rwp/internal/live"
	"rwp/internal/live/proto"
	"rwp/internal/snap"
)

// selftestArgs is the shared geometry for the restart-equivalence CLI
// tests; small enough to keep the runs fast, big enough for RWP
// retargets to fire.
func selftestArgs(extra ...string) []string {
	base := []string{"-sets", "128", "-ways", "4", "-interval", "32", "-profile", "mcf"}
	return append(base, extra...)
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestSelftestRestartEquivalence is the acceptance criterion through
// the real flag surface: snapshot a 12k-op selftest, resume it with
// -restore/-selftest-skip to op 20k — at a different shard count — and
// the printed stats JSON must be byte-identical to one uninterrupted
// 20k-op run.
func TestSelftestRestartEquivalence(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "warm.snap")

	base, errb, code := runCLI(t, selftestArgs("-selftest", "20000", "-shards", "1")...)
	if code != 0 {
		t.Fatalf("baseline run = %d, stderr: %s", code, errb)
	}
	_, errb, code = runCLI(t, selftestArgs("-selftest", "12000", "-shards", "4", "-snapshot", snapPath)...)
	if code != 0 {
		t.Fatalf("warm run = %d, stderr: %s", code, errb)
	}
	for _, shards := range []string{"1", "4", "16"} {
		got, errb, code := runCLI(t, selftestArgs("-selftest", "20000", "-selftest-skip", "12000",
			"-shards", shards, "-restore", snapPath)...)
		if code != 0 {
			t.Fatalf("resumed run (shards=%s) = %d, stderr: %s", shards, code, errb)
		}
		if strings.Contains(errb, "starting cold") {
			t.Fatalf("resumed run (shards=%s) fell back to cold: %s", shards, errb)
		}
		if got != base {
			t.Errorf("resumed output (shards=%s) differs from uninterrupted run:\n%s\nvs\n%s", shards, got, base)
		}
	}

	// Fixed point through the CLI: skip == selftest restores, replays
	// nothing, and re-snapshots; the file must reproduce byte-for-byte
	// even at a different shard count.
	again := filepath.Join(filepath.Dir(snapPath), "again.snap")
	_, errb, code = runCLI(t, selftestArgs("-selftest", "12000", "-selftest-skip", "12000",
		"-shards", "16", "-restore", snapPath, "-snapshot", again)...)
	if code != 0 {
		t.Fatalf("fixed-point run = %d, stderr: %s", code, errb)
	}
	want, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("re-snapshot is not a fixed point: %d vs %d bytes", len(want), len(got))
	}
}

// TestRestoreBadSnapshotStartsCold: a truncated or missing snapshot is
// logged and ignored — exit 0, cold-start output.
func TestRestoreBadSnapshotStartsCold(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "warm.snap")
	_, errb, code := runCLI(t, selftestArgs("-selftest", "2000", "-snapshot", snapPath)...)
	if code != 0 {
		t.Fatalf("warm run = %d, stderr: %s", code, errb)
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.snap")
	if err := os.WriteFile(trunc, data[:256], 0o644); err != nil {
		t.Fatal(err)
	}

	base, _, code := runCLI(t, selftestArgs("-selftest", "2000")...)
	if code != 0 {
		t.Fatal("cold baseline failed")
	}
	for _, path := range []string{trunc, filepath.Join(dir, "missing.snap")} {
		got, errb, code := runCLI(t, selftestArgs("-selftest", "2000", "-restore", path)...)
		if code != 0 {
			t.Fatalf("restore %s: exit %d, stderr: %s", path, code, errb)
		}
		if !strings.Contains(errb, "starting cold") {
			t.Errorf("restore %s: stderr missing 'starting cold': %s", path, errb)
		}
		if got != base {
			t.Errorf("restore %s: output differs from cold run", path)
		}
	}
}

// TestRestoreGeometryMismatchStartsCold: a valid snapshot of the wrong
// geometry is a cold start, not a crash or a partial restore.
func TestRestoreGeometryMismatchStartsCold(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "warm.snap")
	if _, errb, code := runCLI(t, selftestArgs("-selftest", "2000", "-snapshot", snapPath)...); code != 0 {
		t.Fatalf("warm run = %d, stderr: %s", code, errb)
	}
	_, errb, code := runCLI(t, "-sets", "64", "-ways", "4", "-interval", "32",
		"-profile", "mcf", "-selftest", "100", "-restore", snapPath)
	if code != 0 || !strings.Contains(errb, "starting cold") {
		t.Fatalf("geometry mismatch: exit %d, stderr: %s", code, errb)
	}
}

// TestServeShutdownSnapshot runs serve mode end to end: drive traffic
// over the binary listener with op-count checkpoints enabled, shut
// down gracefully, and verify both the checkpoint and the final
// snapshot are valid and that the final one reflects all traffic.
func TestServeShutdownSnapshot(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "serve.snap")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errb syncBuf
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-tcp", "127.0.0.1:0", "-sets", "64", "-ways", "4",
			"-snapshot", snapPath, "-snap-every", "10"}, &out, &errb)
	}()
	conn, err := net.Dial("tcp", waitAddr(t, &out, "tcp"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cli := proto.NewClient(conn)
	for i := 0; i < 40; i++ {
		if _, err := cli.Get("serve-key"); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint boundary has passed; wait for the async write.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := snap.ReadFile(snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint snapshot never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("serve run = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "snapshot written to") {
		t.Errorf("missing snapshot line in output:\n%s", out.String())
	}
	s, err := snap.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("shutdown snapshot: %v", err)
	}
	// The counter vector is opaque outside internal/live: read it back
	// by restoring into a cache of the snapshot's own geometry.
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Policy, cfg.RWP = s.Sets, s.Ways, s.Policy, s.RWP
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreSnapshot(s); err != nil {
		t.Fatalf("restore shutdown snapshot: %v", err)
	}
	if gets := c.Stats().Gets; gets != 40 {
		t.Errorf("shutdown snapshot records %d gets, want 40", gets)
	}
}

// TestSnapshotFlagErrors pins the flag-combination validation.
func TestSnapshotFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"snap-every without snapshot", []string{"-snap-every", "100"}},
		{"snap-every with selftest", []string{"-selftest", "100", "-snapshot", "x.snap", "-snap-every", "10"}},
		{"negative skip", []string{"-selftest", "100", "-selftest-skip", "-1"}},
		{"skip past end", []string{"-selftest", "100", "-selftest-skip", "101"}},
	} {
		if _, _, code := runCLI(t, tc.args...); code != 2 {
			t.Errorf("%s: run = %d, want 2", tc.name, code)
		}
	}
}

// TestSnapCacheCountsWireOps: ServeConn reaches a *live.Cache through
// its byte-key entry points, which snapCache's embedded cache would
// promote past the wrapper. Every data op over the binary protocol —
// single or batched — must still tick the checkpoint clock.
func TestSnapCacheCountsWireOps(t *testing.T) {
	c, err := live.New(live.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := newSnapCache(c, filepath.Join(t.TempDir(), "never.snap"), 1<<62, io.Discard)
	cliEnd, srvEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- proto.ServeConn(srvEnd, sc) }()
	cli := proto.NewClient(cliEnd)
	if _, err := cli.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.MGet([]string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.MPut([]proto.KV{{Key: "b", Value: []byte("2")}, {Key: "c", Value: nil}}); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := sc.ops.Load(); got != 7 {
		t.Errorf("snapCache counted %d data ops over the wire, want 7", got)
	}
}
