package proto

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"rwp/internal/live"
)

// TestConnFootprint pins the memory a connection holds between bursts.
// After a tcp_pipe-shaped burst — 32 single-key GET and PUT frames with
// 64-byte values in one Flush — a client and its server over net.Pipe
// hold at most 16 KiB of buffers, both directions of both ends together
// (with a 64 KiB bufio.Reader and bufio.Writer per end they held
// 256 KiB before reading a byte). A 1 MiB PUT grows the client's write
// buffer and the server's read buffer past a MiB; one more small burst
// gives both back. The server's buffers are read after it has returned
// on the client's close, where its last fill left them: what an idle
// connection holds.
func TestConnFootprint(t *testing.T) {
	const bound = 16 << 10
	c, err := live.New(live.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 64)
	burst := func(cli *Client) {
		for i := 0; i < 32; i++ {
			key := fmt.Sprintf("key-%04d", i)
			if i%4 == 3 {
				err = cli.QueuePut(key, val)
			} else {
				err = cli.QueueGet(key)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cli.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	footprint := func(steps func(cli *Client)) int {
		cc, sc := net.Pipe()
		srv := newConnServer(sc, c)
		done := make(chan error, 1)
		go func() { done <- srv.serve() }()
		cli := NewClient(cc)
		steps(cli)
		client := cap(cli.r.buf) + cap(cli.w.buf)
		cli.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return client + cap(srv.r.buf) + cap(srv.w.buf)
	}
	if got := footprint(burst); got > bound {
		t.Errorf("after a 32-frame burst the connection holds %d bytes of buffers, want <= %d", got, bound)
	}
	got := footprint(func(cli *Client) {
		burst(cli)
		if _, err := cli.Put("big", make([]byte, MaxValue)); err != nil {
			t.Fatal(err)
		}
		if grown := cap(cli.w.buf); grown < MaxValue {
			t.Fatalf("the 1 MiB PUT went out through a %d-byte write buffer", grown)
		}
		burst(cli)
	})
	if got > bound {
		t.Errorf("a burst after a 1 MiB PUT leaves %d bytes of buffers, want <= %d", got, bound)
	}
}
