package proto_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/proto"
)

// frameSeeds are the shared seed corpus for the frame-level fuzz
// targets: valid frames of each opcode, boundary sizes, and classic
// corruptions. testdata/fuzz/ holds additional checked-in seeds in the
// native go-fuzz corpus format.
func frameSeeds(f *testing.F) {
	add := func(b []byte) { f.Add(b) }
	add(proto.AppendFrame(nil, proto.OpPing, nil))
	add(proto.AppendFrame(nil, proto.OpStats, nil))
	gp, _ := proto.AppendGetReq(nil, "key")
	add(proto.AppendFrame(nil, proto.OpGet, gp))
	pp, _ := proto.AppendPutReq(nil, "key", []byte("value"))
	add(proto.AppendFrame(nil, proto.OpPut, pp))
	mg, _ := proto.AppendMGetReq(nil, []string{"a", "b", "c"})
	add(proto.AppendFrame(nil, proto.OpMGet, mg))
	mp, _ := proto.AppendMPutReq(nil, []proto.KV{{Key: "a", Value: []byte("1")}})
	add(proto.AppendFrame(nil, proto.OpMPut, mp))
	// Good frames around batches whose second element is cut short: the
	// whole-batch validation pass must refuse them before applying any.
	add(truncatedBatch(proto.OpMPut))
	add(truncatedBatch(proto.OpMGet))
	// Two frames back to back: resync behavior after a good frame.
	add(proto.AppendFrame(proto.AppendFrame(nil, proto.OpPing, []byte("x")), proto.OpStats, nil))
	// Corruptions.
	flipped := proto.AppendFrame(nil, proto.OpPing, []byte("flip me"))
	flipped[len(flipped)/2] ^= 0x40
	add(flipped)
	add([]byte("RW"))                                                                      // truncated header
	add([]byte{'R', 'W', proto.Version, 0xff})                                             // bad opcode
	add(bytes.Repeat([]byte{0xff}, 32))                                                    // noise
	add([]byte{'R', 'W', proto.Version, byte(proto.OpPing), 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge length
	add([]byte{})
}

// FuzzReadFrame hardens the frame reader: arbitrary bytes must never
// panic, never allocate past MaxPayload, and either yield frames or
// fail cleanly. Decoded frame count is bounded by the input size (the
// minimum frame is 9 bytes), so a decoding loop always terminates. The
// same bytes fed through a splitter seeded by their length must decode
// to the same outcomes: read boundaries never change what is decoded.
func FuzzReadFrame(f *testing.F) {
	frameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := proto.NewReader(bytes.NewReader(data))
		for i := 0; ; i++ {
			op, payload, err := r.ReadFrame()
			if err != nil {
				if err == io.EOF && len(payload) != 0 {
					t.Fatal("EOF with payload")
				}
				break
			}
			if !op.Valid() {
				t.Fatalf("decoded invalid opcode %v", op)
			}
			if len(payload) > proto.MaxPayload {
				t.Fatalf("payload %d exceeds MaxPayload", len(payload))
			}
			if i > len(data)/9 {
				t.Fatalf("decoded more frames than %d input bytes can hold", len(data))
			}
		}
		want := decodeAll(bytes.NewReader(data))
		got := decodeAll(newSplitReader(bytes.NewReader(data), uint64(len(data))))
		if len(got) != len(want) {
			t.Fatalf("split reads decode %d outcomes, whole reads %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("outcome %d: split reads (%v, %q, %q), whole reads (%v, %q, %q)",
					i, got[i].op, got[i].payload, got[i].err, want[i].op, want[i].payload, want[i].err)
			}
		}
	})
}

// FuzzFrameRoundTrip: whatever opcode/payload the writer accepts must
// decode back bit-exactly.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(proto.OpGet), []byte("\x03abc"))
	f.Add(byte(proto.OpPing), []byte{})
	f.Add(byte(proto.OpErr), bytes.Repeat([]byte{0x80}, 200))
	f.Fuzz(func(t *testing.T, opByte byte, payload []byte) {
		op := proto.Op(opByte)
		if !op.Valid() || len(payload) > proto.MaxPayload {
			return // AppendFrame's contract excludes these
		}
		wire := proto.AppendFrame(nil, op, payload)
		gotOp, gotPayload, err := proto.NewReader(bytes.NewReader(wire)).ReadFrame()
		if err != nil {
			t.Fatalf("decoding own frame: %v", err)
		}
		if gotOp != op || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip: (%v, %x) -> (%v, %x)", op, payload, gotOp, gotPayload)
		}
		// And the stream ends cleanly right after.
		if _, _, err := proto.NewReader(bytes.NewReader(wire)).ReadFrame(); err != nil {
			t.Fatal(err)
		}
	})
}

// flushMix is FuzzClientFlush's fixed pipeline: one request of every
// data op, with the elements each reply must carry.
var flushMix = []struct {
	op      proto.Op
	gets    int // MGET keys
	inserts int // MPUT pairs
}{{proto.OpGet, 0, 0}, {proto.OpPut, 0, 0}, {proto.OpMGet, 3, 0}, {proto.OpMPut, 0, 2}, {proto.OpPing, 0, 0}}

// queueFlushMix queues flushMix on c.
func queueFlushMix(t *testing.T, c *proto.Client) {
	for _, err := range []error{
		c.QueueGet("k"),
		c.QueuePut("k", []byte("v")),
		c.QueueMGet([]string{"a", "b", "c"}),
		c.QueueMPut([]proto.KV{{Key: "a", Value: []byte("1")}, {Key: "b"}}),
		c.QueuePing([]byte("p")),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// flushMixReplies is a well-formed answer to flushMix: a hit, an
// insert, an MGET with a hit, a fill of an empty value and a miss, an
// MPUT, and the PING echo.
func flushMixReplies() []byte {
	b := proto.AppendFrame(nil, proto.OpGet, proto.AppendGetResp(nil, proto.GetResult{Status: proto.StatusHit, Value: []byte("v")}))
	b = proto.AppendFrame(b, proto.OpPut, proto.AppendPutResp(nil, true))
	b = proto.AppendFrame(b, proto.OpMGet, proto.AppendMGetResp(nil, []proto.GetResult{
		{Status: proto.StatusHit, Value: []byte("1")}, {Status: proto.StatusFill, Value: []byte{}}, {Status: proto.StatusMiss},
	}))
	b = proto.AppendFrame(b, proto.OpMPut, proto.AppendMPutResp(nil, []bool{false, true}))
	return proto.AppendFrame(b, proto.OpPing, []byte("p"))
}

// FuzzClientFlush feeds arbitrary reply bytes to a client with flushMix
// queued, twice over, so the second Flush decodes into the first one's
// scratch. It must never panic. A Flush either fails or returns one
// reply per request, in request order, whose Gets and Inserts have one
// element per key or pair requested and whose every Value is nil
// exactly on a miss. testdata/fuzz/FuzzClientFlush/ holds the checked-in
// seeds: short, long and misordered replies, bad statuses, ERR frames.
func FuzzClientFlush(f *testing.F) {
	f.Add(append(flushMixReplies(), flushMixReplies()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		cli := proto.NewClient(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard})
		for round := 0; round < 2; round++ {
			queueFlushMix(t, cli)
			replies, err := cli.Flush()
			if err != nil {
				return
			}
			if len(replies) != len(flushMix) {
				t.Fatalf("%d replies to %d requests", len(replies), len(flushMix))
			}
			for i, want := range flushMix {
				rep := replies[i]
				if rep.Op != want.op || len(rep.Gets) != want.gets || len(rep.Inserts) != want.inserts {
					t.Fatalf("reply %d: %v with %d gets and %d inserts, want %v with %d and %d",
						i, rep.Op, len(rep.Gets), len(rep.Inserts), want.op, want.gets, want.inserts)
				}
				for _, res := range append([]proto.GetResult{rep.Get}, rep.Gets...) {
					if (res.Value == nil) != (res.Status == proto.StatusMiss) {
						t.Fatalf("reply %d: status %v with value %q", i, res.Status, res.Value)
					}
				}
			}
		}
	})
}

// fuzzBackend is a deterministic in-memory Backend for FuzzServeConn.
type fuzzBackend struct{ m map[string][]byte }

func (b *fuzzBackend) Get(key string) ([]byte, bool) {
	v, ok := b.m[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

func (b *fuzzBackend) Put(key string, val []byte) bool {
	_, existed := b.m[key]
	b.m[key] = append([]byte(nil), val...)
	return !existed
}

func (b *fuzzBackend) StatsJSON() ([]byte, error) { return []byte("{}\n"), nil }

// FuzzServeConn feeds the pipelined server loop arbitrary connection
// bytes. The loop must never panic, must answer only with valid
// frames, and must close cleanly: nil on EOF at a frame boundary, a
// wire/transport error otherwise (after an ERR frame).
func FuzzServeConn(f *testing.F) {
	frameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		conn := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), &out}
		err := proto.ServeConn(conn, &fuzzBackend{m: map[string][]byte{}})
		if err != nil && err != io.ErrUnexpectedEOF && !proto.IsWireError(err) {
			t.Fatalf("unexpected error class: %v", err)
		}
		// Every byte the server wrote must parse as valid frames, the
		// last possibly an ERR.
		r := proto.NewReader(bytes.NewReader(out.Bytes()))
		for {
			op, _, rerr := r.ReadFrame()
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				t.Fatalf("server wrote an unparseable frame: %v", rerr)
			}
			if op == proto.OpErr && err == nil {
				t.Fatal("ERR frame written but ServeConn returned nil")
			}
		}
	})
}

// restoreCache is FuzzRestoreWire's cache: the geometry of the
// snapshots in internal/snap's FuzzDecode corpus (16 sets of 2 ways,
// rwp, interval 2), so those seeds get past the decoder to the cache's
// own checks, holding a few entries so that a restore which applied
// anything would show in its stats.
func restoreCache(tb testing.TB, seed int) *live.Cache {
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways = 16, 2
	cfg.RWP.Interval = 2
	c, err := live.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("w%d-%d", seed, i)
		c.Put(k, []byte(k))
		c.Get(fmt.Sprintf("w%d-%d", seed, i/2))
	}
	return c
}

// restoreStream frames data as a RESTORE transfer in three chunks, the
// first two flagged ChunkMore, followed by a PING.
func restoreStream(data []byte) []byte {
	var s []byte
	a, b := len(data)/3, 2*len(data)/3
	s = proto.AppendFrame(s, proto.OpRestore, proto.AppendChunk(nil, proto.ChunkMore, data[:a]))
	s = proto.AppendFrame(s, proto.OpRestore, proto.AppendChunk(nil, proto.ChunkMore, data[a:b]))
	s = proto.AppendFrame(s, proto.OpRestore, proto.AppendChunk(nil, proto.ChunkLast, data[b:]))
	return proto.AppendFrame(s, proto.OpPing, []byte("still here"))
}

// FuzzRestoreWire feeds arbitrary snapshot bytes, chunked, through
// ServeConn's RESTORE staging into a live.Cache. A restore is
// all-or-nothing: refused, it leaves the stats document byte-identical;
// refused or applied, CheckInvariants passes and the connection still
// answers a PING. testdata/fuzz/FuzzRestoreWire/ holds internal/snap's
// FuzzDecode corpus (an lru and an rwp snapshot of this geometry, a
// truncated one, a v4 file — the rwp one applies); the added seed is a
// snapshot of another cache of this geometry, which applies.
func FuzzRestoreWire(f *testing.F) {
	donor := restoreCache(f, 1)
	snap, err := donor.SnapBytes(0, 16)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > proto.SnapChunk {
			return // three chunks would not fit the frames
		}
		c := restoreCache(t, 0)
		before, err := c.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := proto.ServeConn(&memConn{in: restoreStream(data), out: &out}, c); err != nil {
			t.Fatalf("ServeConn on a well-framed transfer: %v", err)
		}
		r := proto.NewReader(&out)
		op, payload, err := r.ReadFrame()
		if err != nil || op != proto.OpRestore {
			t.Fatalf("first reply (%v, %v), want a RESTORE reply", op, err)
		}
		_, refusal, err := proto.ParseRestoreResp(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after restore (refusal %q): %v", refusal, err)
		}
		if refusal != "" {
			if after, _ := c.StatsJSON(); !bytes.Equal(before, after) {
				t.Fatalf("refused restore (%s) changed the stats document", refusal)
			}
		}
		if op, payload, err := r.ReadFrame(); err != nil || op != proto.OpPing || string(payload) != "still here" {
			t.Fatalf("after the restore, PING got (%v, %q, %v)", op, payload, err)
		}
		if _, _, err := r.ReadFrame(); err != io.EOF {
			t.Fatalf("bytes after the PING reply: %v", err)
		}
	})
}
