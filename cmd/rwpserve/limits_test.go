package main

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

// limitServer starts a tcpServer over c with the given limits and the
// frameTimeout constant.
func limitServer(t *testing.T, c *live.Cache, conns int, write time.Duration) (*tcpServer, string) {
	return limitServerFrame(t, c, conns, write, frameTimeout)
}

// limitServerFrame starts a tcpServer over c with the given limits.
func limitServerFrame(t *testing.T, c *live.Cache, conns int, write, frame time.Duration) (*tcpServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tsrv := newTCPServer(ln, c, io.Discard)
	if tsrv.maxConns != maxConns || tsrv.writeTimeout != writeTimeout || tsrv.frameTimeout != frameTimeout {
		t.Fatalf("newTCPServer limits %d conns, %v writes, %v frames; want the constants %d, %v, %v",
			tsrv.maxConns, tsrv.writeTimeout, tsrv.frameTimeout, maxConns, writeTimeout, frameTimeout)
	}
	tsrv.maxConns, tsrv.writeTimeout, tsrv.frameTimeout = conns, write, frame
	go tsrv.serve()
	t.Cleanup(func() { tsrv.shutdownNow() })
	return tsrv, ln.Addr().String()
}

// served returns how many connections tsrv is serving.
func (s *tcpServer) served() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// waitServed waits until tsrv serves n connections.
func waitServed(t *testing.T, tsrv *tcpServer, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for tsrv.served() != n {
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d connections, want %d", tsrv.served(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// roundTrip puts a value under key through cli and reads it back.
func roundTrip(t *testing.T, cli *proto.Client, key string) {
	t.Helper()
	val := []byte("value of " + key)
	if _, err := cli.Put(key, val); err != nil {
		t.Fatalf("PUT %s: %v", key, err)
	}
	res, err := cli.Get(key)
	if err != nil {
		t.Fatalf("GET %s: %v", key, err)
	}
	if res.Status != proto.StatusHit || !bytes.Equal(res.Value, val) {
		t.Fatalf("GET %s = %v %q, want hit %q", key, res.Status, res.Value, val)
	}
}

func dialClient(t *testing.T, addr string) (net.Conn, *proto.Client) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return conn, proto.NewClient(conn)
}

// TestConnectionCap: the connection past the cap is told why in one ERR
// frame and closed; the connections inside it keep working, and a slot
// freed by a close is served again.
func TestConnectionCap(t *testing.T) {
	c := diffCache(t)
	tsrv, addr := limitServer(t, c, 2, writeTimeout)
	clis := make([]*proto.Client, 2)
	conns := make([]net.Conn, 2)
	for i := range clis {
		conns[i], clis[i] = dialClient(t, addr)
		roundTrip(t, clis[i], fmt.Sprintf("k%d", i)) // accepted and served
	}

	extra, _ := dialClient(t, addr)
	r := proto.NewReader(extra)
	op, payload, err := r.ReadFrame()
	if err != nil || op != proto.OpErr || !bytes.Equal(payload, errConnLimit) {
		t.Fatalf("connection past the cap read %v %q (err %v), want ERR %q", op, payload, err, errConnLimit)
	}
	if _, _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("connection past the cap: after ERR read err %v, want EOF", err)
	}
	if n := tsrv.served(); n != 2 {
		t.Fatalf("server holds %d connections, want 2", n)
	}
	for i, cli := range clis {
		roundTrip(t, cli, fmt.Sprintf("again%d", i))
	}

	conns[0].Close()
	waitServed(t, tsrv, 1)
	_, cli := dialClient(t, addr)
	roundTrip(t, cli, "freed")
	roundTrip(t, clis[1], "still")
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteDeadlineDropsStalledPeer: a peer that pipelines more reply
// bytes than the socket buffers hold and never reads loses its
// connection once a write has waited out the deadline; another client
// is answered correctly throughout and after.
func TestWriteDeadlineDropsStalledPeer(t *testing.T) {
	c := diffCache(t)
	tsrv, addr := limitServer(t, c, maxConns, 200*time.Millisecond)
	_, good := dialClient(t, addr)
	roundTrip(t, good, "before")

	stalled, _ := dialClient(t, addr)
	ping := proto.AppendFrame(nil, proto.OpPing, make([]byte, 256<<10))
	sent := make(chan int, 1)
	go func() {
		// 128 MiB of echoes at most: far past any loopback socket
		// buffers. The writes fail once the server closes.
		n := 0
		for ; n < 512; n++ {
			if _, err := stalled.Write(ping); err != nil {
				break
			}
		}
		sent <- n
	}()
	roundTrip(t, good, "during")
	if n := <-sent; n == 512 {
		t.Fatalf("all %d PINGs were accepted: the server never stopped reading", n)
	}
	waitServed(t, tsrv, 1)
	roundTrip(t, good, "after")
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// waitDropped waits until the server closes conn: a read returns an
// error before the dial's deadline, and none of the peer's bytes were
// answered.
func waitDropped(t *testing.T, what string, conn net.Conn) {
	t.Helper()
	var b [1]byte
	if n, err := conn.Read(b[:]); err == nil || n != 0 {
		t.Fatalf("%s: read %d bytes, err %v; want the connection closed", what, n, err)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: still connected after the test's deadline", what)
	}
}

// TestFrameDeadline: a peer that sends part of a frame and not the rest
// within the frame deadline loses its connection, whether it stalls or
// keeps trickling bytes in; a peer idle between frames keeps it for any
// length of time. Another client is answered correctly throughout.
func TestFrameDeadline(t *testing.T) {
	const frame = 300 * time.Millisecond
	c := diffCache(t)
	tsrv, addr := limitServerFrame(t, c, maxConns, writeTimeout, frame)
	_, good := dialClient(t, addr)
	roundTrip(t, good, "before")
	// The idle peer's last frame arrives in two parts, so the server
	// set that frame a deadline, which the next read, at a boundary,
	// must lift.
	idle, idleCli := dialClient(t, addr)
	roundTrip(t, idleCli, "idle")
	ping := proto.AppendFrame(nil, proto.OpPing, []byte("split"))
	for _, part := range [][]byte{ping[:3], ping[3:]} {
		if _, err := idle.Write(part); err != nil {
			t.Fatal(err)
		}
		time.Sleep(frame / 6)
	}
	if op, payload, err := proto.NewReader(idle).ReadFrame(); err != nil || op != proto.OpPing || string(payload) != "split" {
		t.Fatalf("split PING: %v %q, %v", op, payload, err)
	}

	p, err := proto.AppendPutReq(nil, "stalled", bytes.Repeat([]byte("v"), 4096))
	if err != nil {
		t.Fatal(err)
	}
	put := proto.AppendFrame(nil, proto.OpPut, p)

	// Slow frame: one byte per 100 ms, each well inside the deadline,
	// the frame far outside it.
	slow, _ := dialClient(t, addr)
	go func() {
		for _, b := range put {
			if _, err := slow.Write([]byte{b}); err != nil {
				return
			}
			time.Sleep(frame / 3)
		}
	}()
	// Stalled payload: the header and half the payload, then nothing.
	half, _ := dialClient(t, addr)
	if _, err := half.Write(put[:len(put)/2]); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, good, "during")
	waitDropped(t, "slow frame", slow)
	waitDropped(t, "stalled payload", half)
	waitServed(t, tsrv, 2)

	time.Sleep(3 * frame) // idle at a boundary, well past the deadline
	roundTrip(t, idleCli, "idle again")
	roundTrip(t, good, "after")
	if got := c.Stats(); got.Puts != 5 {
		t.Errorf("%d PUTs applied, want the 5 round trips': a partial frame was served", got.Puts)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOneStagedRestore: while one connection stages a RESTORE, a second
// transfer is refused on a connection that stays usable. The first
// applies, and once it has, a new transfer is staged again.
func TestOneStagedRestore(t *testing.T) {
	c := diffCache(t)
	tsrv, addr := limitServer(t, c, maxConns, writeTimeout)
	_, good := dialClient(t, addr)
	for i := 0; i < 64; i++ {
		roundTrip(t, good, fmt.Sprintf("k%d", i))
	}
	data, err := c.SnapBytes(0, 64)
	if err != nil {
		t.Fatal(err)
	}

	// The first transfer sends its first chunk and holds the rest back.
	// The PING behind the chunk comes back once the chunk is staged.
	first, _ := dialClient(t, addr)
	firstR := proto.NewReader(first)
	chunk := func(flag byte, b []byte) {
		t.Helper()
		if _, err := first.Write(proto.AppendFrame(nil, proto.OpRestore, proto.AppendChunk(nil, flag, b))); err != nil {
			t.Fatal(err)
		}
	}
	chunk(proto.ChunkMore, data[:len(data)/2])
	if _, err := first.Write(proto.AppendFrame(nil, proto.OpPing, nil)); err != nil {
		t.Fatal(err)
	}
	if op, _, err := firstR.ReadFrame(); err != nil || op != proto.OpPing {
		t.Fatalf("PING behind the first chunk: %v, %v", op, err)
	}

	_, second := dialClient(t, addr)
	if _, err := second.Restore(data); err == nil || !strings.Contains(err.Error(), "restore refused") {
		t.Fatalf("second RESTORE while one is staged: err %v, want a refusal", err)
	}
	roundTrip(t, second, "after refusal")
	roundTrip(t, good, "during")

	chunk(proto.ChunkLast, data[len(data)/2:])
	op, payload, err := firstR.ReadFrame()
	if err != nil || op != proto.OpRestore {
		t.Fatalf("first RESTORE reply: %v, %v", op, err)
	}
	if _, refusal, err := proto.ParseRestoreResp(payload); err != nil || refusal != "" {
		t.Fatalf("first RESTORE: refusal %q, err %v; want applied", refusal, err)
	}
	if tsrv.staging.Load() {
		t.Fatal("the applied transfer still holds the staging slot")
	}
	if _, err := second.Restore(data); err != nil {
		t.Fatalf("RESTORE after the first was applied: %v", err)
	}
	roundTrip(t, good, "after")
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
