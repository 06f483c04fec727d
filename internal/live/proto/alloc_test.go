package proto

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// loopReader replays the same frame bytes forever without allocating,
// so AllocsPerRun sees only ReadFrame's own allocations.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.frame) {
		l.off = 0
	}
	n := copy(p, l.frame[l.off:])
	l.off += n
	return n, nil
}

// TestReadFrameAllocs pins ReadFrame at zero heap allocations per
// frame in the steady state: the scratch buffer is warmed to the
// high-water payload by the first read and reused after that. Every
// allocation left in ReadFrame is one-time, amortized, or on an error
// path, and this test proves the happy path hits none of them.
func TestReadFrameAllocs(t *testing.T) {
	frame := AppendFrame(nil, OpGet, bytes.Repeat([]byte("k"), 512))
	r := NewReader(&loopReader{frame: frame})
	// Warm the scratch buffer to the stream's payload size.
	if _, _, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		op, payload, err := r.ReadFrame()
		if err != nil || op != OpGet || len(payload) != 512 {
			t.Fatalf("ReadFrame = (%v, %d bytes, %v)", op, len(payload), err)
		}
	})
	//rwplint:allow floateq — AllocsPerRun yields an exact small-integer float; the pin is exact by design
	if allocs != 0 {
		t.Errorf("steady-state ReadFrame allocates %.1f objects/frame, want 0", allocs)
	}
}

// TestFlushClearsStaleReplies: a Flush shorter than the last must not
// leave the last one's replies past its end in the client's scratch,
// where each stale value would keep its whole value chunk reachable.
func TestFlushClearsStaleReplies(t *testing.T) {
	hit := GetResult{Status: StatusHit, Value: []byte("v")}
	stream := AppendFrame(nil, OpGet, AppendGetResp(nil, hit))
	stream = AppendFrame(stream, OpMGet, AppendMGetResp(nil, []GetResult{hit, hit, hit}))
	stream = AppendFrame(stream, OpMGet, AppendMGetResp(nil, []GetResult{hit}))
	c := NewClient(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(stream), io.Discard})
	if err := c.QueueGet("k"); err != nil { // rides with the first MGET
		t.Fatal(err)
	}
	for _, keys := range [][]string{{"a", "b", "c"}, {"a"}} {
		if err := c.QueueMGet(keys); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range c.replies[len(c.replies):cap(c.replies)] {
		if r.Get.Value != nil || r.Gets != nil {
			t.Errorf("reply scratch %d past the last Flush still holds a reply", len(c.replies)+i)
		}
	}
	for i, g := range c.gets[len(c.gets):cap(c.gets)] {
		if g.Value != nil {
			t.Errorf("MGET scratch %d past the last Flush still holds %q", len(c.gets)+i, g.Value)
		}
	}
}

// fixedSnap serves one snapshot without allocating. ServeConn calls
// nothing else of it on a SNAP request.
type fixedSnap struct {
	RangeBackend
	data []byte
}

func (f *fixedSnap) SnapBytes(lo, hi int) ([]byte, error) { return f.data, nil }

// TestChunkedTransferAllocs pins both transfer directions at no
// allocation per chunk: a SNAP served by ServeConn and a RESTORE sent
// by Client.Restore, each eight 1 MiB chunks over net.Pipe. The peer at
// the other end reads frames into its warmed scratch and reassembles
// nothing, so only the transfer is counted. Building each chunk frame
// in fresh buffers cost two 1 MiB allocations per chunk.
func TestChunkedTransferAllocs(t *testing.T) {
	const chunks = 8
	data := bytes.Repeat([]byte{0x5a}, chunks*SnapChunk)
	pin := func(t *testing.T, transfer func()) {
		transfer() // warm the readers' scratch to a whole chunk frame
		allocs := testing.AllocsPerRun(10, transfer)
		//rwplint:allow floateq — AllocsPerRun yields an exact small-integer float; the pin is exact by design
		if allocs != 0 {
			t.Errorf("a %d-chunk transfer allocates %.0f objects, want 0", chunks, allocs)
		}
	}
	t.Run("SNAP", func(t *testing.T) {
		cc, sc := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- ServeConn(sc, &fixedSnap{data: data}) }()
		defer func() { cc.Close(); <-done }()
		p, err := AppendRangeReq(nil, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		req, r := AppendFrame(nil, OpSnap, p), NewReader(cc)
		pin(t, func() {
			if _, err := cc.Write(req); err != nil {
				t.Fatal(err)
			}
			for n := 1; ; n++ {
				op, payload, err := r.ReadFrame()
				if err != nil || op != OpSnap {
					t.Fatalf("chunk %d: (%v, %v), want a SNAP frame", n, op, err)
				}
				if flag, chunk, err := ParseChunk(payload); err != nil || len(chunk) != SnapChunk {
					t.Fatalf("chunk %d: %d bytes, %v", n, len(chunk), err)
				} else if flag == ChunkLast {
					if n != chunks {
						t.Fatalf("%d chunks, want %d", n, chunks)
					}
					return
				}
			}
		})
	})
	t.Run("RESTORE", func(t *testing.T) {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() { // the peer: answers each transfer after its last chunk
			defer close(done)
			reply := AppendFrame(nil, OpRestore, AppendRestoreResp(nil, 3, ""))
			r := NewReader(sc)
			for {
				_, payload, err := r.ReadFrame()
				if err != nil {
					return
				}
				if flag, _, _ := ParseChunk(payload); flag == ChunkLast {
					if _, err := sc.Write(reply); err != nil {
						return
					}
				}
			}
		}()
		defer func() { cc.Close(); <-done }()
		cli := NewClient(cc)
		pin(t, func() {
			if purged, err := cli.Restore(data); err != nil || purged != 3 {
				t.Fatalf("Restore = %d, %v", purged, err)
			}
		})
	})
}

// TestAppendFrameAllocs pins the encode side: with a dst slice of
// sufficient capacity, AppendFrame must not allocate at all.
func TestAppendFrameAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("v"), 256)
	dst := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		out := AppendFrame(dst[:0], OpPut, payload)
		if len(out) == 0 {
			t.Fatal("empty frame")
		}
	})
	//rwplint:allow floateq — AllocsPerRun yields an exact small-integer float; the pin is exact by design
	if allocs != 0 {
		t.Errorf("AppendFrame into a sized buffer allocates %.1f objects/frame, want 0", allocs)
	}
}
