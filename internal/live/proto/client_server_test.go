package proto_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"rwp/internal/live"
	"rwp/internal/live/proto"
)

// liveBackend adapts a real live.Cache (the production path) with a
// fixed stats document.
type liveBackend struct {
	*live.Cache
}

func (b liveBackend) StatsJSON() ([]byte, error) {
	s := b.Stats()
	return []byte(fmt.Sprintf("{\"gets\":%d,\"puts\":%d}\n", s.Gets, s.Puts)), nil
}

// failingStats exercises the STATS error path.
type failingStats struct{ liveBackend }

func (failingStats) StatsJSON() ([]byte, error) { return nil, errors.New("stats exploded") }

func newLiveBackend(t *testing.T, loader bool) liveBackend {
	t.Helper()
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = 64, 4, 4
	if loader {
		cfg.Loader = func(key string) []byte { return []byte("fill:" + key) }
	}
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return liveBackend{c}
}

// startConn wires a client to a ServeConn goroutine over an in-memory
// pipe and returns the client plus a channel carrying the server
// loop's exit error.
func startConn(t *testing.T, b proto.Backend) (*proto.Client, net.Conn, chan error) {
	t.Helper()
	cc, sc := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- proto.ServeConn(sc, b)
		close(done) // the buffered error stays receivable; extra reads see nil
		sc.Close()
	}()
	t.Cleanup(func() { cc.Close(); <-done })
	return proto.NewClient(cc), cc, done
}

// TestClientServerOps exercises every op synchronously against a real
// live.Cache backend.
func TestClientServerOps(t *testing.T) {
	b := newLiveBackend(t, true)
	cli, cc, _ := startConn(t, b)

	// Put: insert then overwrite.
	ins, err := cli.Put("a", []byte("v1"))
	if err != nil || !ins {
		t.Fatalf("first put: %v %v", ins, err)
	}
	ins, err = cli.Put("a", []byte("v2"))
	if err != nil || ins {
		t.Fatalf("second put: %v %v", ins, err)
	}
	// Get: hit with latest value.
	res, err := cli.Get("a")
	if err != nil || res.Status != proto.StatusHit || string(res.Value) != "v2" {
		t.Fatalf("get hit: %+v %v", res, err)
	}
	// Get: loader fill.
	res, err = cli.Get("zz")
	if err != nil || res.Status != proto.StatusFill || string(res.Value) != "fill:zz" {
		t.Fatalf("get fill: %+v %v", res, err)
	}
	// MGet in request order.
	results, err := cli.MGet([]string{"a", "zz", "new"})
	if err != nil || len(results) != 3 {
		t.Fatalf("mget: %+v %v", results, err)
	}
	if results[0].Status != proto.StatusHit || results[1].Status != proto.StatusHit ||
		results[2].Status != proto.StatusFill {
		t.Fatalf("mget statuses: %v %v %v", results[0].Status, results[1].Status, results[2].Status)
	}
	// MPut in request order: duplicate key in one batch must see its
	// own earlier insert.
	inserts, err := cli.MPut(KV("b", "1", "c", "2", "b", "3"))
	if err != nil || len(inserts) != 3 {
		t.Fatalf("mput: %v %v", inserts, err)
	}
	if !inserts[0] || !inserts[1] || inserts[2] {
		t.Fatalf("mput order broken: %v", inserts)
	}
	// Stats document comes from the backend verbatim.
	doc, err := cli.Stats()
	if err != nil || !bytes.Contains(doc, []byte("\"gets\"")) {
		t.Fatalf("stats: %q %v", doc, err)
	}
	// Ping echoes.
	echo, err := cli.Ping([]byte("are you there"))
	if err != nil || string(echo) != "are you there" {
		t.Fatalf("ping: %q %v", echo, err)
	}
	// Clean shutdown: closing the client side ends ServeConn with nil.
	cc.Close()
}

// KV builds a []proto.KV from alternating key/value strings.
func KV(pairs ...string) []proto.KV {
	kvs := make([]proto.KV, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, proto.KV{Key: pairs[i], Value: []byte(pairs[i+1])})
	}
	return kvs
}

// TestPipelinedFlush queues a mixed burst and checks replies arrive in
// request order with the right shapes.
func TestPipelinedFlush(t *testing.T) {
	b := newLiveBackend(t, false)
	cli, _, _ := startConn(t, b)

	if err := cli.QueuePut("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := cli.QueueGet("x"); err != nil {
		t.Fatal(err)
	}
	if err := cli.QueueGet("absent"); err != nil {
		t.Fatal(err)
	}
	if err := cli.QueueMPut(KV("y", "2")); err != nil {
		t.Fatal(err)
	}
	if err := cli.QueueMGet([]string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := cli.QueueStats(); err != nil {
		t.Fatal(err)
	}
	if got := cli.Depth(); got != 6 {
		t.Fatalf("depth %d, want 6", got)
	}
	replies, err := cli.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 6 || cli.Depth() != 0 {
		t.Fatalf("replies %d, depth %d", len(replies), cli.Depth())
	}
	if !replies[0].Inserted {
		t.Error("put reply")
	}
	if replies[1].Get.Status != proto.StatusHit || string(replies[1].Get.Value) != "1" {
		t.Errorf("get reply: %+v", replies[1].Get)
	}
	if replies[2].Get.Status != proto.StatusMiss || replies[2].Get.Value != nil {
		t.Errorf("miss reply: %+v", replies[2].Get)
	}
	if len(replies[3].Inserts) != 1 || !replies[3].Inserts[0] {
		t.Errorf("mput reply: %+v", replies[3].Inserts)
	}
	if len(replies[4].Gets) != 2 || replies[4].Gets[0].Status != proto.StatusHit ||
		replies[4].Gets[1].Status != proto.StatusHit {
		t.Errorf("mget reply: %+v", replies[4].Gets)
	}
	if !bytes.Contains(replies[5].Data, []byte("\"puts\":2")) {
		t.Errorf("stats reply: %q", replies[5].Data)
	}
}

// TestServerRejectsMalformed sends garbage and checks the server
// answers with an ERR frame, closes, and reports a wire error.
func TestServerRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte // written verbatim to the connection
	}{
		{"garbage", []byte("GET /get?key=a HTTP/1.1\r\n")},
		{"bad crc", func() []byte {
			f := proto.AppendFrame(nil, proto.OpPing, []byte("x"))
			f[len(f)-1] ^= 0xff
			return f
		}()},
		{"err op request", proto.AppendFrame(nil, proto.OpErr, []byte("hi"))},
		{"malformed get payload", proto.AppendFrame(nil, proto.OpGet, []byte{0x09})},
		{"malformed mput payload", proto.AppendFrame(nil, proto.OpMPut, []byte{0x01, 0x01, 'a'})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newLiveBackend(t, false)
			cc, sc := net.Pipe()
			done := make(chan error, 1)
			go func() {
				done <- proto.ServeConn(sc, b)
				sc.Close()
			}()
			defer cc.Close()
			go cc.Write(tc.raw) // net.Pipe writes block on the reader
			r := proto.NewReader(cc)
			op, payload, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("reading error reply: %v", err)
			}
			if op != proto.OpErr || len(payload) == 0 {
				t.Fatalf("got (%v, %q), want ERR frame", op, payload)
			}
			serr := <-done
			if serr == nil {
				t.Fatal("server loop exited nil on malformed input")
			}
			if !proto.IsWireError(serr) {
				t.Fatalf("server error %v is not a wire error", serr)
			}
		})
	}
}

// bigValues is a backend whose every Get hits with the same large
// value — the cheapest way to drive an MGET response past MaxPayload
// with a perfectly well-formed request.
type bigValues struct{ val []byte }

func (b bigValues) Get(string) ([]byte, bool)  { return b.val, true }
func (b bigValues) Put(string, []byte) bool    { return false }
func (b bigValues) StatsJSON() ([]byte, error) { return []byte("{}\n"), nil }

// TestMGetResponseTooLarge sends a valid MGET whose response would
// exceed MaxPayload (5 keys × 1 MiB values) and checks the server
// refuses with an ERR frame instead of panicking in AppendFrame —
// previously a remote crash of the whole process.
func TestMGetResponseTooLarge(t *testing.T) {
	b := bigValues{val: make([]byte, proto.MaxValue)}
	cli, _, done := startConn(t, b)
	keys := []string{"a", "b", "c", "d", "e"}
	if _, err := cli.MGet(keys); err == nil ||
		!strings.Contains(err.Error(), "length exceeds limit") {
		t.Fatalf("oversized mget: %v", err)
	}
	if serr := <-done; !errors.Is(serr, proto.ErrTooLarge) {
		t.Fatalf("server loop error %v, want ErrTooLarge", serr)
	}
}

// TestEmptyValueHit pins the Value-nil-iff-miss contract for
// zero-length values: a hit on an empty value must decode as a non-nil
// empty slice, distinguishable from a miss.
func TestEmptyValueHit(t *testing.T) {
	b := newLiveBackend(t, false)
	cli, _, _ := startConn(t, b)
	if _, err := cli.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Get("empty")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != proto.StatusHit || res.Value == nil || len(res.Value) != 0 {
		t.Fatalf("empty-value hit: status=%v value=%#v", res.Status, res.Value)
	}
	// MGET path shares the decoder but clones per element.
	results, err := cli.MGet([]string{"empty"})
	if err != nil || len(results) != 1 {
		t.Fatalf("mget: %+v %v", results, err)
	}
	if results[0].Status != proto.StatusHit || results[0].Value == nil {
		t.Fatalf("empty-value mget hit: %+v", results[0])
	}
}

// TestShutdownNudgeClosesCleanly expires the server-side read deadline
// — exactly what tcpServer.shutdown does to idle connections — and
// checks ServeConn exits with the deadline error without writing a
// spurious ERR frame: the well-behaved peer sees a clean close.
func TestShutdownNudgeClosesCleanly(t *testing.T) {
	b := newLiveBackend(t, false)
	cc, sc := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- proto.ServeConn(sc, b)
		sc.Close()
	}()
	defer cc.Close()
	cli := proto.NewClient(cc)
	if _, err := cli.Ping([]byte("x")); err != nil {
		t.Fatal(err)
	}
	sc.SetReadDeadline(time.Unix(1, 0)) // long expired: the nudge fires at once
	if serr := <-done; !errors.Is(serr, os.ErrDeadlineExceeded) {
		t.Fatalf("server loop error %v, want deadline exceeded", serr)
	}
	// No ERR frame was written: the next read sees only the close.
	if op, payload, err := proto.NewReader(cc).ReadFrame(); err != io.EOF {
		t.Fatalf("after nudge got (%v, %q, %v), want clean EOF", op, payload, err)
	}
}

// TestServerStatsFailure covers the backend StatsJSON error path.
func TestServerStatsFailure(t *testing.T) {
	b := failingStats{newLiveBackend(t, false)}
	cli, _, done := startConn(t, b)
	if _, err := cli.Stats(); err == nil || !strings.Contains(err.Error(), "stats exploded") {
		t.Fatalf("stats error: %v", err)
	}
	if serr := <-done; serr == nil {
		t.Fatal("server kept serving after stats failure")
	}
}

// TestClientReplyMismatch covers the client's defense against a server
// answering with the wrong opcode.
func TestClientReplyMismatch(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	go func() {
		// Read whatever arrives, then answer a GET with a PUT reply.
		buf := make([]byte, 1024)
		sc.Read(buf)
		sc.Write(proto.AppendFrame(nil, proto.OpPut, proto.AppendPutResp(nil, true)))
		sc.Close()
	}()
	cli := proto.NewClient(cc)
	if _, err := cli.Get("k"); !errors.Is(err, proto.ErrOp) {
		t.Fatalf("mismatched reply: %v", err)
	}
}

// stallSpy wraps the server's end of a connection and closes stalled if
// the server reads again after it has received all of the first frame
// (size first) but before it has written anything: it is waiting on the
// rest of the stream with the first reply unsent. Only the server's
// goroutine touches the counters.
type stallSpy struct {
	net.Conn
	first, got, writes int
	stalled            chan struct{}
	reported           bool
}

func (s *stallSpy) Read(p []byte) (int, error) {
	if s.got >= s.first && s.writes == 0 && !s.reported {
		close(s.stalled)
		s.reported = true
	}
	n, err := s.Conn.Read(p)
	s.got += n
	return n, err
}

func (s *stallSpy) Write(p []byte) (int, error) {
	s.writes++
	return s.Conn.Write(p)
}

// TestRepliesFlushBeforeBlockingRead: a peer that sends frame 1 and half
// of frame 2 over loopback TCP, then waits for reply 1, gets it before
// it sends the rest. A server that flushed only when it had no bytes
// buffered at all kept reply 1 back until frame 2 was whole, and this
// peer waited for it forever.
func TestRepliesFlushBeforeBlockingRead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	one := proto.AppendFrame(nil, proto.OpPing, []byte("one"))
	two := proto.AppendFrame(nil, proto.OpPing, []byte("two"))
	stalled, done := make(chan struct{}), make(chan error, 1)
	b := newLiveBackend(t, false)
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer sc.Close()
		done <- proto.ServeConn(&stallSpy{Conn: sc, first: len(one), stalled: stalled}, b)
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	r := proto.NewReader(cc)
	type reply struct {
		payload string
		err     error
	}
	read := func() <-chan reply {
		ch := make(chan reply, 1)
		go func() {
			_, payload, err := r.ReadFrame()
			ch <- reply{string(payload), err}
		}()
		return ch
	}
	half := len(two) / 2
	if _, err := cc.Write(append(append([]byte(nil), one...), two[:half]...)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalled:
		t.Fatal("the server waits for the rest of frame 2 with reply 1 unsent")
	case got := <-read():
		if got.err != nil || got.payload != "one" {
			t.Fatalf("reply 1 = (%q, %v), want the PING echo \"one\"", got.payload, got.err)
		}
	}
	if _, err := cc.Write(two[half:]); err != nil {
		t.Fatal(err)
	}
	if got := <-read(); got.err != nil || got.payload != "two" {
		t.Fatalf("reply 2 = (%q, %v), want the PING echo \"two\"", got.payload, got.err)
	}
	cc.Close()
	if err := <-done; err != nil {
		t.Fatalf("ServeConn after a clean close: %v", err)
	}
}
