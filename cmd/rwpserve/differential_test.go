package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rwp/internal/live"
	"rwp/internal/live/drive"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
)

// diffCache builds the fixed cache geometry every differential test
// replays into — one constructor so the only variable is the transport.
func diffCache(t *testing.T) *live.Cache {
	t.Helper()
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = 128, 4, 4
	cfg.RWP.Interval = 32
	cfg.Loader = loadgen.Loader(8)
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// replayThrough runs the canonical stream through one transport and
// returns the stats document fetched through that same transport.
func replayThrough(t *testing.T, transport string, batch, depth, n int) []byte {
	t.Helper()
	g, err := loadgen.New("mcf", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := drive.New(transport, diffCache(t), batch, depth)
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	if err := tgt.Replay(loadgen.Take(g, n)); err != nil {
		t.Fatalf("%s replay: %v", transport, err)
	}
	data, err := tgt.StatsJSON()
	if err != nil {
		t.Fatalf("%s stats: %v", transport, err)
	}
	return data
}

// TestTransportEquivalence is the tentpole's differential proof: the
// same single-goroutine loadgen stream produces byte-identical stats
// JSON whether it travels in process or over the binary protocol in
// batched pipelined frames.
func TestTransportEquivalence(t *testing.T) {
	const n = 5000
	base := replayThrough(t, "direct", 0, 0, n)
	for _, want := range []string{"\"Retargets\"", "\"RetargetUp\"", "\"RetargetDown\"", "\"RetargetSame\"", "\"CostHist\""} {
		if !strings.Contains(string(base), want) {
			t.Fatalf("baseline stats missing %s:\n%s", want, base)
		}
	}
	for _, tc := range []struct{ batch, depth int }{
		{1, 1},   // degenerate: one op per frame, one frame per flush
		{32, 8},  // the default-ish batched pipelined shape
		{256, 2}, // big frames, shallow pipeline
	} {
		got := replayThrough(t, "tcp", tc.batch, tc.depth, n)
		if !bytes.Equal(got, base) {
			t.Errorf("tcp (batch=%d depth=%d) stats differ from direct:\n%s\nvs\n%s",
				tc.batch, tc.depth, got, base)
		}
	}
}

// TestPipelineDepthInvariance pins the satellite criterion verbatim:
// identical stats across TCP pipelining depths 1, 8, and 64.
func TestPipelineDepthInvariance(t *testing.T) {
	const n = 5000
	base := replayThrough(t, "tcp", 16, 1, n)
	for _, depth := range []int{8, 64} {
		if got := replayThrough(t, "tcp", 16, depth, n); !bytes.Equal(got, base) {
			t.Errorf("depth %d stats differ from depth 1:\n%s\nvs\n%s", depth, got, base)
		}
	}
}

// syncBuf is a mutex-guarded buffer: the serve goroutine writes while
// the test polls.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitAddr polls out for a "scheme://host:port" token.
func waitAddr(t *testing.T, out *syncBuf, scheme string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, f := range strings.Fields(out.String()) {
			if rest, ok := strings.CutPrefix(f, scheme+"://"); ok {
				return rest
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no %s:// address in output:\n%s", scheme, out.String())
	return ""
}

// TestServeTCPEndToEnd boots the real run() with both listeners, talks
// to each, proves the STATS frame equals the /stats body byte for
// byte, then shuts the whole thing down via context cancel — the
// production -tcp path end to end.
func TestServeTCPEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errb syncBuf
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-tcp", "127.0.0.1:0",
			"-sets", "64", "-ways", "4", "-shards", "4"}, &out, &errb)
	}()
	httpAddr := waitAddr(t, &out, "http")
	tcpAddr := waitAddr(t, &out, "tcp")

	conn, err := net.Dial("tcp", tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cli := proto.NewClient(conn)

	if inserted, err := cli.Put("e2e", []byte("v1")); err != nil || !inserted {
		t.Fatalf("Put = %v, %v", inserted, err)
	}
	res, err := cli.Get("e2e")
	if err != nil || res.Status != proto.StatusHit || string(res.Value) != "v1" {
		t.Fatalf("Get = %+v, %v", res, err)
	}
	if echo, err := cli.Ping([]byte("ping-me")); err != nil || string(echo) != "ping-me" {
		t.Fatalf("Ping = %q, %v", echo, err)
	}

	binStats, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + httpAddr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	httpStats, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binStats, httpStats) {
		t.Fatalf("binary STATS differs from HTTP /stats:\n%s\nvs\n%s", binStats, httpStats)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d, stderr: %s", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after cancel")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing shutdown line in output:\n%s", out.String())
	}
}

// TestServeListenErrors covers the bind-failure paths for both
// listeners.
func TestServeListenErrors(t *testing.T) {
	// Occupy a port so serve's bind fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	busy := ln.Addr().String()

	c := diffCache(t)
	var out, errb bytes.Buffer
	if err := serve(context.Background(), busy, "127.0.0.1:0", c, "", 0, &out, &errb); err == nil {
		t.Error("serve on a busy HTTP port: no error")
	}
	if err := serve(context.Background(), "127.0.0.1:0", busy, c, "", 0, &out, &errb); err == nil {
		t.Error("serve on a busy TCP port: no error")
	}
}

// TestTCPServerLogsBadPeer: a peer that sends garbage gets its error
// logged and the connection closed, and the server keeps serving.
func TestTCPServerLogsBadPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var errb syncBuf
	tsrv := newTCPServer(ln, diffCache(t), &errb)
	go tsrv.serve()
	defer tsrv.shutdownNow()

	bad, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server replies with an ERR frame and closes.
	if _, err := io.ReadAll(bad); err != nil {
		t.Fatal(err)
	}
	bad.Close()

	// A well-formed client still works on a fresh connection.
	good, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, err := proto.NewClient(good).Ping([]byte("ok")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(errb.String(), "rwpserve: tcp") {
		if time.Now().After(deadline) {
			t.Fatalf("no peer-error log line, stderr:\n%s", errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownClosesIdleConns: an idle client (blocked server read at
// a frame boundary) must not hold up a graceful shutdown — the drain
// finishes well inside the deadline and returns nil.
func TestShutdownClosesIdleConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tsrv := newTCPServer(ln, diffCache(t), io.Discard)
	go tsrv.serve()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A round trip guarantees the connection is registered and idle.
	if _, err := proto.NewClient(conn).Ping(nil); err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tsrv.shutdown(sctx); err != nil {
		t.Fatalf("shutdown with an idle conn = %v, want nil", err)
	}
}

// fakeListener hands out pre-made connections — a way to feed the
// server a conn whose read deadline does not work.
type fakeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newFakeListener() *fakeListener {
	return &fakeListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
}

func (l *fakeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *fakeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

func (l *fakeListener) Addr() net.Addr { return fakeAddr{} }

// noDeadlineConn swallows read deadlines, simulating a straggler the
// graceful phase cannot unblock.
type noDeadlineConn struct{ net.Conn }

func (noDeadlineConn) SetReadDeadline(time.Time) error { return nil }

// TestShutdownForcesStragglers: a connection the deadline nudge cannot
// unblock is force-closed once the drain deadline passes, and shutdown
// reports the deadline error.
func TestShutdownForcesStragglers(t *testing.T) {
	ln := newFakeListener()
	tsrv := newTCPServer(ln, diffCache(t), io.Discard)
	go tsrv.serve()

	client, server := net.Pipe()
	defer client.Close()
	ln.conns <- noDeadlineConn{server}
	// Half a frame: the server blocks in ReadFrame waiting for the
	// rest. net.Pipe writes are synchronous, so returning from Write
	// means the server loop has consumed the bytes and is registered.
	if _, err := client.Write([]byte{proto.Magic0, proto.Magic1}); err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := tsrv.shutdown(sctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown = %v, want context.DeadlineExceeded", err)
	}
}
