package proto_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"rwp/internal/live/proto"
	"rwp/internal/xrand"
)

// splitReader returns the bytes of r in pieces of seeded random length
// (1 to 64 bytes, or a long run now and then), so a frame's header,
// length, payload and CRC each land across read boundaries somewhere.
type splitReader struct {
	r   io.Reader
	rng *xrand.RNG
}

func newSplitReader(r io.Reader, seed uint64) *splitReader {
	return &splitReader{r: r, rng: xrand.New(seed)}
}

func (s *splitReader) Read(p []byte) (int, error) {
	n := 1 + s.rng.Intn(64)
	if s.rng.Intn(8) == 0 {
		n = 1 + s.rng.Intn(8192)
	}
	return s.r.Read(p[:min(n, len(p))])
}

// decoded is one ReadFrame outcome, with the payload copied out.
type decoded struct {
	op      proto.Op
	payload string
	err     string
}

// decodeAll reads frames from r until ReadFrame fails, recording every
// outcome including the failure.
func decodeAll(r io.Reader) []decoded {
	fr := proto.NewReader(r)
	var out []decoded
	for {
		op, payload, err := fr.ReadFrame()
		d := decoded{op: op, payload: string(payload)}
		if err != nil {
			d.err = err.Error()
			return append(out, d)
		}
		out = append(out, d)
	}
}

// chunkStream is a multi-frame stream for the chunking tests: every
// data opcode, empty payloads, a two-byte length, and a frame larger
// than the reader's initial buffer between small ones. ends holds the
// offset just past each frame.
func chunkStream() (stream []byte, ends []int) {
	add := func(op proto.Op, payload []byte) {
		stream = proto.AppendFrame(stream, op, payload)
		ends = append(ends, len(stream))
	}
	gp, _ := proto.AppendGetReq(nil, "key")
	add(proto.OpGet, gp)
	add(proto.OpPing, nil)
	pp, _ := proto.AppendPutReq(nil, "key", bytes.Repeat([]byte("v"), 300))
	add(proto.OpPut, pp)
	add(proto.OpPing, bytes.Repeat([]byte{0xa5}, 5000))
	mg, _ := proto.AppendMGetReq(nil, []string{"a", "b", "c"})
	add(proto.OpMGet, mg)
	mp, _ := proto.AppendMPutReq(nil, []proto.KV{{Key: "a", Value: []byte("1")}, {Key: "b"}})
	add(proto.OpMPut, mp)
	add(proto.OpStats, nil)
	return stream, ends
}

// chunking is one way the chunking tests deliver a byte stream.
type chunking struct {
	name string
	wrap func([]byte) io.Reader
}

// chunkings are the iotest readers and eight seeded splitters.
func chunkings() []chunking {
	cs := []chunking{
		{"OneByteReader", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"HalfReader", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
		{"DataErrReader", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		cs = append(cs, chunking{fmt.Sprintf("split-%d", seed), func(b []byte) io.Reader { return newSplitReader(bytes.NewReader(b), seed) }})
	}
	return cs
}

// TestReadFrameChunkingInvariance: how the bytes arrive must not change
// what ReadFrame decodes. The stream decodes to the same (op, payload,
// err) sequence through one-byte reads, half reads, data delivered with
// its EOF, and seeded random split points as through one bytes.Reader.
func TestReadFrameChunkingInvariance(t *testing.T) {
	stream, ends := chunkStream()
	want := decodeAll(bytes.NewReader(stream))
	if len(want) != len(ends)+1 || want[len(ends)].err != io.EOF.Error() {
		t.Fatalf("reference decode: %d outcomes ending %q, want %d frames then EOF", len(want), want[len(want)-1].err, len(ends))
	}
	for _, c := range chunkings() {
		name, got := c.name, decodeAll(c.wrap(stream))
		if len(got) != len(want) {
			t.Errorf("%s: %d outcomes, want %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: outcome %d = (%v, %d bytes, %q), want (%v, %d bytes, %q)",
					name, i, got[i].op, len(got[i].payload), got[i].err, want[i].op, len(want[i].payload), want[i].err)
			}
		}
	}
}

// TestReadFrameEOFRules cuts the stream short at frame boundaries and
// inside frames, under every chunking: the frames before the cut
// decode, then a cut at a boundary reads as io.EOF and a cut inside a
// frame as io.ErrUnexpectedEOF.
func TestReadFrameEOFRules(t *testing.T) {
	stream, ends := chunkStream()
	full := decodeAll(bytes.NewReader(stream))
	var cuts []int
	for cut := 0; cut <= len(stream); cut++ {
		// Every offset near a boundary, and a sample of the big payload.
		near := false
		for _, e := range append([]int{0}, ends...) {
			near = near || (cut >= e-12 && cut <= e+12)
		}
		if near || cut%97 == 0 {
			cuts = append(cuts, cut)
		}
	}
	chunked := append(chunkings(), chunking{"bytes.Reader", func(b []byte) io.Reader { return bytes.NewReader(b) }})
	for _, cut := range cuts {
		whole, boundary := 0, cut == 0
		for _, e := range ends {
			if e <= cut {
				whole++
			}
			boundary = boundary || e == cut
		}
		wantErr := io.ErrUnexpectedEOF
		if boundary {
			wantErr = io.EOF
		}
		for _, c := range chunked {
			name, got := c.name, decodeAll(c.wrap(stream[:cut]))
			if len(got) != whole+1 || got[whole].err != wantErr.Error() {
				t.Fatalf("%s, cut at %d: %d outcomes ending %q, want %d frames then %v",
					name, cut, len(got), got[len(got)-1].err, whole, wantErr)
			}
			for i := 0; i < whole; i++ {
				if got[i] != full[i] {
					t.Fatalf("%s, cut at %d: frame %d decodes differently", name, cut, i)
				}
			}
		}
	}
}

// midFrameSpy is a proto.MidFrameReader that checks, at every read,
// what the Reader says about the stream against the frame boundaries
// it really has.
type midFrameSpy struct {
	t      *testing.T
	name   string
	r      io.Reader
	bounds map[int64]bool // frame starts, and the stream's end
	total  int64          // bytes delivered so far
	mid    int            // ReadMidFrame calls
}

func (s *midFrameSpy) Read(p []byte) (int, error) {
	if !s.bounds[s.total] {
		s.t.Errorf("%s: Read at offset %d, inside a frame", s.name, s.total)
	}
	return s.deliver(p)
}

func (s *midFrameSpy) ReadMidFrame(p []byte, frame int64) (int, error) {
	s.mid++
	inside := s.bounds[frame] && frame < s.total
	for b := frame + 1; inside && b <= s.total; b++ {
		inside = !s.bounds[b]
	}
	if !inside {
		s.t.Errorf("%s: ReadMidFrame at offset %d names frame %d, not the frame in progress", s.name, s.total, frame)
	}
	return s.deliver(p)
}

func (s *midFrameSpy) deliver(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.total += int64(n)
	return n, err
}

// TestMidFrameReads: a stream that implements proto.MidFrameReader is
// read through Read exactly at frame boundaries and through
// ReadMidFrame inside a frame, which it names by its first byte's
// offset, under every chunking; and what decodes is unchanged.
func TestMidFrameReads(t *testing.T) {
	stream, ends := chunkStream()
	want := decodeAll(bytes.NewReader(stream))
	bounds := map[int64]bool{0: true}
	for _, e := range ends {
		bounds[int64(e)] = true
	}
	for _, c := range chunkings() {
		spy := &midFrameSpy{t: t, name: c.name, r: c.wrap(stream), bounds: bounds}
		if got := decodeAll(spy); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decodes differently through ReadMidFrame", c.name)
		}
		if spy.mid == 0 {
			t.Errorf("%s: no frame arrived in parts", c.name)
		}
	}
}
