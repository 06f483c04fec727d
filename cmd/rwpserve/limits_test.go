package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"rwp/internal/live"
	"rwp/internal/live/proto"
)

// limitServer starts a tcpServer over c with the given limits.
func limitServer(t *testing.T, c *live.Cache, conns int, write time.Duration) (*tcpServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tsrv := newTCPServer(ln, c, io.Discard)
	if tsrv.maxConns != maxConns || tsrv.writeTimeout != writeTimeout {
		t.Fatalf("newTCPServer limits %d conns, %v writes; want the constants %d, %v",
			tsrv.maxConns, tsrv.writeTimeout, maxConns, writeTimeout)
	}
	tsrv.maxConns, tsrv.writeTimeout = conns, write
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
