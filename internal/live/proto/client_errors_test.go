package proto

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// brokenConn fails every Write with writeErr after okBytes bytes and
// blocks nothing on Read (reads return readErr), modelling a peer that
// vanished mid-burst: the write side dies first, and any read the
// client attempts afterwards would report a different, less
// diagnostic error.
type brokenConn struct {
	okBytes  int
	writeErr error
	readErr  error
	closed   bool
}

func (b *brokenConn) Write(p []byte) (int, error) {
	if b.okBytes >= len(p) {
		b.okBytes -= len(p)
		return len(p), nil
	}
	n := b.okBytes
	b.okBytes = 0
	return n, b.writeErr
}

func (b *brokenConn) Read(p []byte) (int, error) { return 0, b.readErr }

func (b *brokenConn) Close() error {
	b.closed = true
	return nil
}

// TestFlushBrokenConnReturnsWriteError pins the hardening contract:
// when the connection's write side is broken, Flush reports the
// underlying write error — not the read error a reply fetch would hit.
func TestFlushBrokenConnReturnsWriteError(t *testing.T) {
	writeErr := errors.New("connection reset by peer (write)")
	readErr := errors.New("unrelated read failure")
	conn := &brokenConn{writeErr: writeErr, readErr: readErr}
	c := NewClient(conn)
	if err := c.QueueGet("k"); err != nil {
		t.Fatalf("QueueGet buffered write failed: %v", err)
	}
	if _, err := c.Flush(); !errors.Is(err, writeErr) {
		t.Fatalf("Flush error = %v, want the write error %v", err, writeErr)
	}
	// The client is poisoned: later calls keep reporting the root cause.
	if _, err := c.Flush(); !errors.Is(err, writeErr) {
		t.Fatalf("second Flush error = %v, want sticky write error", err)
	}
	if err := c.QueuePut("k", []byte("v")); !errors.Is(err, writeErr) {
		t.Fatalf("QueuePut after failure = %v, want sticky write error", err)
	}
}

// TestQueueWriteErrorSticks drives enough queued bytes through a
// broken connection that the write buffer hits the wire mid-queue; the
// failure must surface on the queueing call and stick, so a later
// Flush reports the write error instead of hanging on replies that
// will never come.
func TestQueueWriteErrorSticks(t *testing.T) {
	writeErr := errors.New("broken pipe")
	conn := &brokenConn{writeErr: writeErr, readErr: io.EOF}
	c := NewClient(conn)
	big := strings.Repeat("x", 32<<10)
	var qerr error
	for i := 0; i < 8 && qerr == nil; i++ {
		qerr = c.QueuePing([]byte(big)) // 8 x 32 KiB passes the 64 KiB flush threshold
	}
	if !errors.Is(qerr, writeErr) {
		t.Fatalf("queueing past the buffer = %v, want %v", qerr, writeErr)
	}
	if _, err := c.Flush(); !errors.Is(err, writeErr) {
		t.Fatalf("Flush after mid-queue failure = %v, want the write error", err)
	}
}

// TestClientUseAfterClose pins the typed ErrClosed sentinel on every
// entry point and that Close propagates to the underlying connection.
func TestClientUseAfterClose(t *testing.T) {
	conn := &brokenConn{readErr: io.EOF}
	c := NewClient(conn)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !conn.closed {
		t.Fatal("Close did not close the underlying connection")
	}
	if err := c.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	checks := []struct {
		name string
		call func() error
	}{
		{"QueueGet", func() error { return c.QueueGet("k") }},
		{"QueuePut", func() error { return c.QueuePut("k", nil) }},
		{"QueueMGet", func() error { return c.QueueMGet([]string{"k"}) }},
		{"QueueMPut", func() error { return c.QueueMPut([]KV{{Key: "k"}}) }},
		{"QueueStats", c.QueueStats},
		{"QueuePing", func() error { return c.QueuePing(nil) }},
		{"Flush", func() error { _, err := c.Flush(); return err }},
		{"Get", func() error { _, err := c.Get("k"); return err }},
		{"Put", func() error { _, err := c.Put("k", nil); return err }},
		{"MGet", func() error { _, err := c.MGet([]string{"k"}); return err }},
		{"MPut", func() error { _, err := c.MPut([]KV{{Key: "k"}}); return err }},
		{"Stats", func() error { _, err := c.Stats(); return err }},
		{"Ping", func() error { _, err := c.Ping(nil); return err }},
	}
	for _, tc := range checks {
		if err := tc.call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close = %v, want ErrClosed", tc.name, err)
		}
	}
}

// TestCloseOnNonCloserConn covers clients over plain io.ReadWriters
// (tests use net.Pipe halves wrapped in buffers): Close still poisons
// the client even when there is nothing to close.
func TestCloseOnNonCloserConn(t *testing.T) {
	c := NewClient(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(""), io.Discard})
	if err := c.Close(); err != nil {
		t.Fatalf("Close on non-Closer conn: %v", err)
	}
	if err := c.QueueGet("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("QueueGet after Close = %v, want ErrClosed", err)
	}
}
