package probe

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// sampleWindows is two 1024-op windows over two shards.
func sampleWindows() []ShardWindow {
	return []ShardWindow{
		{Window: 0, Shard: 0, Reads: 900, Writes: 100, P99Cost: 37, Replicas: 1},
		{Window: 0, Shard: 1, Reads: 21, Writes: 3, P99Cost: 2, Replicas: 1},
		{Window: 1, Shard: 0, Reads: 850, Writes: 150, P99Cost: 31, Replicas: 2},
		{Window: 1, Shard: 1, Reads: 0, Writes: 0, P99Cost: 0, Replicas: 1},
	}
}

// writeWindows journals ws the way the router does: one Window call per
// window index, then Close.
func writeWindows(w io.Writer, desc string, ws []ShardWindow) error {
	ww := NewWindowWriter(w, desc)
	for lo := 0; lo < len(ws); {
		hi := lo
		for hi < len(ws) && ws[hi].Window == ws[lo].Window {
			hi++
		}
		if err := ww.Window(ws[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return ww.Close()
}

func TestShardWindowsRoundTrip(t *testing.T) {
	in := sampleWindows()
	var buf bytes.Buffer
	if err := writeWindows(&buf, "hotspot nodes=3", in); err != nil {
		t.Fatal(err)
	}
	desc, ops, out, err := ReadShardWindows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if desc != "hotspot nodes=3" || ops != 1024 {
		t.Fatalf("header round-trip: desc %q window_ops %d", desc, ops)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d windows, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("window %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestShardWindowsCanonicalBytes(t *testing.T) {
	var a, b bytes.Buffer
	if err := writeWindows(&a, "run", sampleWindows()); err != nil {
		t.Fatal(err)
	}
	if err := writeWindows(&b, "run", sampleWindows()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two serializations of the same windows differ")
	}
	// Canonical form: sorted object keys on every line.
	first, _, _ := strings.Cut(a.String(), "\n")
	if !strings.HasPrefix(first, `{"desc":`) {
		t.Fatalf("header line not canonical: %s", first)
	}
}

// TestShardWindowsEmpty: a run that closes no windows journals just
// the header — window_ops 0, there being no window to read the width
// off — and the reader hands back the header fields with zero windows,
// not an error (an empty window log is a valid run).
func TestShardWindowsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeWindows(&buf, "idle", nil); err != nil {
		t.Fatal(err)
	}
	desc, ops, ws, err := ReadShardWindows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if desc != "idle" || ops != 0 || len(ws) != 0 {
		t.Fatalf("empty journal round-trip: desc=%q ops=%d windows=%d", desc, ops, len(ws))
	}
}

// TestWindowWriterStreams pins what makes the writer a stream: nothing
// is written before the first window (the header's window_ops comes
// from it), every Window call leaves the output ending on that whole
// window, so each call's output extends the previous call's — the
// prefix property the CLI tests lean on — and Close adds nothing once a
// window is out.
func TestWindowWriterStreams(t *testing.T) {
	ws := sampleWindows()
	var buf bytes.Buffer
	ww := NewWindowWriter(&buf, "run")
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written before the first window", buf.Len())
	}
	if err := ww.Window(ws[:2]); err != nil {
		t.Fatal(err)
	}
	one := buf.String()
	if _, ops, got, err := ReadShardWindows(strings.NewReader(one)); err != nil || ops != 1024 || len(got) != 2 {
		t.Fatalf("after one window: window_ops=%d records=%d err=%v, want 1024, 2", ops, len(got), err)
	}
	if err := ww.Window(ws[2:]); err != nil {
		t.Fatal(err)
	}
	two := buf.String()
	if !strings.HasPrefix(two, one) || strings.Count(two, `"t":"header"`) != 1 {
		t.Fatalf("second window did not extend the first:\n%s\nvs\n%s", two, one)
	}
	if err := ww.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != two {
		t.Errorf("Close wrote %q after the last window", buf.String()[len(two):])
	}
}

// failAfter fails every write once n bytes have gone through.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestWindowWriterReportsWriteErrors: a failing file surfaces from the
// Window call that hit it (each call flushes), not only from Close.
func TestWindowWriterReportsWriteErrors(t *testing.T) {
	ws := sampleWindows()
	ww := NewWindowWriter(&failAfter{n: 400}, "run")
	if err := ww.Window(ws[:2]); err != nil {
		t.Fatalf("first window (under the limit): %v", err)
	}
	if err := ww.Window(ws[2:]); !errors.Is(err, errDiskFull) {
		t.Fatalf("second window: err = %v, want the write error", err)
	}
}

// TestShardWindowsSingleOp: the smallest non-trivial window — one read
// on one shard — survives the round trip exactly, including the
// degenerate p99 (a single observation is every percentile).
func TestShardWindowsSingleOp(t *testing.T) {
	var h CostHist
	h.Observe(0) // the op's queue-depth cost: first op of the window
	in := []ShardWindow{{Window: 0, Shard: 0, Reads: 1, Writes: 0, P99Cost: h.Percentile(99), Replicas: 1}}
	var buf bytes.Buffer
	if err := writeWindows(&buf, "one-op", in); err != nil {
		t.Fatal(err)
	}
	_, _, out, err := ReadShardWindows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Fatalf("single-op window round-trip: %+v", out)
	}
}

// TestShardWindowsCorruptionDetected: truncating the journal
// mid-record or flipping structural bytes must fail the decode — the
// cluster's replay guarantees depend on never consuming a damaged
// window log silently.
func TestShardWindowsCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeWindows(&buf, "run", sampleWindows()); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	// Mid-record truncations at several depths into the final line
	// (cutting only the trailing newline leaves a complete record, so
	// start at two bytes).
	for _, cut := range []int{2, 5, 20} {
		if _, _, _, err := ReadShardWindows(strings.NewReader(good[:len(good)-cut])); err == nil {
			t.Errorf("truncation by %d bytes decoded without error", cut)
		}
	}

	// Bit-flips that corrupt structure: the record discriminator, the
	// schema string, and an object brace.
	flips := map[string]string{
		"record type":  strings.Replace(good, `"t":"window"`, `"t":"wind0w"`, 1),
		"schema":       strings.Replace(good, WindowSchema, "rwp-cluster-windows-v2", 1),
		"object brace": strings.Replace(good, `{"p99_cost"`, `["p99_cost"`, 1),
	}
	for name, bad := range flips {
		if bad == good {
			t.Fatalf("%s: corruption did not apply", name)
		}
		if _, _, _, err := ReadShardWindows(strings.NewReader(bad)); err == nil {
			t.Errorf("%s corruption decoded without error", name)
		}
	}
}

// TestShardWindowsRejectsBadInput: a shard-window journal has no rule
// of its own beyond the shared reader rules.
func TestShardWindowsRejectsBadInput(t *testing.T) {
	checkReaderRules(t, "windows")
}
