package proto

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestFrameRoundTrip encodes a frame per opcode and decodes the
// concatenated stream back.
func TestFrameRoundTrip(t *testing.T) {
	frames := []struct {
		op      Op
		payload []byte
	}{
		{OpGet, []byte("\x03abc")},
		{OpPut, nil},
		{OpMGet, bytes.Repeat([]byte{0xaa}, 300)}, // 2-byte length uvarint
		{OpStats, []byte("{}")},
		{OpPing, []byte{}},
		{OpErr, []byte("boom")},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f.op, f.payload)
	}
	r := NewReader(bytes.NewReader(wire))
	for i, f := range frames {
		op, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if op != f.op || !bytes.Equal(payload, f.payload) {
			t.Fatalf("frame %d: got (%v, %x), want (%v, %x)", i, op, payload, f.op, f.payload)
		}
	}
	if _, _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

// TestWriteChunkFrameBytes pins the streamed chunk frame to the bytes
// AppendFrame builds around AppendChunk, at every length-uvarint width a
// chunk reaches, and behind frames already buffered.
func TestWriteChunkFrameBytes(t *testing.T) {
	for _, n := range []int{0, 1, 126, 127, 300, 20000, SnapChunk} {
		for _, prefill := range []int{0, 10} {
			chunk := bytes.Repeat([]byte{byte(n)}, n)
			var out bytes.Buffer
			w := writer{w: &out, buf: make([]byte, prefill)}
			if err := writeChunkFrame(&w, OpRestore, ChunkLast, chunk); err != nil {
				t.Fatal(err)
			}
			if err := w.flush(); err != nil {
				t.Fatal(err)
			}
			want := AppendFrame(make([]byte, prefill), OpRestore, AppendChunk(nil, ChunkLast, chunk))
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("%d-byte chunk after %d buffered bytes: streamed frame differs from AppendFrame's", n, prefill)
			}
		}
	}
}

// TestReadFrameErrors drives each malformed-input class through the
// reader and checks it fails with the right sentinel, never a panic.
func TestReadFrameErrors(t *testing.T) {
	valid := AppendFrame(nil, OpPing, []byte("hello"))
	corrupt := func(i int, delta byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= delta
		return b
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"magic", corrupt(0, 0xff), ErrMagic},
		{"magic2", corrupt(1, 0x01), ErrMagic},
		{"version", corrupt(2, 0x07), ErrVersion},
		{"opcode zero", corrupt(3, byte(OpPing)), ErrOp},
		{"opcode high", corrupt(3, 0xf0), ErrOp},
		{"payload bit flip", corrupt(7, 0x10), ErrCRC},
		{"crc bit flip", corrupt(len(valid)-1, 0x01), ErrCRC},
		{"truncated header", valid[:2], io.ErrUnexpectedEOF},
		{"truncated payload", valid[:7], io.ErrUnexpectedEOF},
		{"truncated crc", valid[:len(valid)-2], io.ErrUnexpectedEOF},
		{"oversized length", append(append([]byte(nil), valid[:4]...),
			0xff, 0xff, 0xff, 0xff, 0x7f), ErrTooLarge},
		{"runaway length uvarint", append(append([]byte(nil), valid[:4]...),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff), ErrTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := NewReader(bytes.NewReader(tc.in)).ReadFrame()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReaderScratchReuse checks the reader's scratch buffer survives
// frames of growing and shrinking sizes (the aliasing contract).
func TestReaderScratchReuse(t *testing.T) {
	var wire []byte
	sizes := []int{0, 1000, 3, 100_000, 5}
	for _, n := range sizes {
		wire = AppendFrame(wire, OpPing, bytes.Repeat([]byte{byte(n)}, n))
	}
	r := NewReader(bytes.NewReader(wire))
	for _, n := range sizes {
		_, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != n {
			t.Fatalf("payload size %d, want %d", len(payload), n)
		}
	}
}

// batchRecorder is a ByteBackend that records what the server's batch
// walk hands it, copying — key and val are only borrowed.
type batchRecorder struct{ keys, vals []string }

func (r *batchRecorder) GetAppend(dst, key []byte) ([]byte, bool, bool) {
	r.keys = append(r.keys, string(key))
	return dst, false, false
}

func (r *batchRecorder) PutBytes(key, val []byte) bool {
	r.keys = append(r.keys, string(key))
	r.vals = append(r.vals, string(val))
	return true
}

// decodeBatch decodes an MGET/MPUT request payload the way ServeConn
// does: one validating pass of the server's in-place walk, then one
// applying pass.
func decodeBatch(op Op, payload []byte) (keys, vals []string, err error) {
	rec := &batchRecorder{}
	s := &connServer{b: rec}
	if err = s.batch(op, payload, false); err == nil {
		err = s.batch(op, payload, true)
	}
	return rec.keys, rec.vals, err
}

// TestPayloadRoundTrips round-trips every op-specific payload codec.
func TestPayloadRoundTrips(t *testing.T) {
	// GET
	gp, err := AppendGetReq(nil, "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if k, err := parseGetReq(gp); err != nil || string(k) != "key-1" {
		t.Fatalf("get req: %q, %v", k, err)
	}
	for _, res := range []GetResult{
		{Status: StatusMiss},
		{Status: StatusHit, Value: []byte("v")},
		{Status: StatusFill, Value: []byte{}},
	} {
		got, err := parseGetResp(AppendGetResp(nil, res))
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != res.Status || !bytes.Equal(got.Value, res.Value) {
			t.Fatalf("get resp: %+v, want %+v", got, res)
		}
	}
	// PUT
	pp, err := AppendPutReq(nil, "k", []byte("val"))
	if err != nil {
		t.Fatal(err)
	}
	if k, v, err := parsePutReq(pp); err != nil || string(k) != "k" || string(v) != "val" {
		t.Fatalf("put req: %q %q %v", k, v, err)
	}
	for _, ins := range []bool{true, false} {
		got, err := ParsePutResp(AppendPutResp(nil, ins))
		if err != nil || got != ins {
			t.Fatalf("put resp: %v %v, want %v", got, err, ins)
		}
	}
	// MGET
	keys := []string{"a", "bb", "", "dddd"}
	mp, err := AppendMGetReq(nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	gotKeys, _, err := decodeBatch(OpMGet, mp)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotKeys) != len(keys) {
		t.Fatalf("mget req count %d, want %d", len(gotKeys), len(keys))
	}
	for i := range keys {
		if gotKeys[i] != keys[i] {
			t.Fatalf("mget req key %d: %q, want %q", i, gotKeys[i], keys[i])
		}
	}
	results := []GetResult{{Status: StatusHit, Value: []byte("x")}, {Status: StatusMiss}}
	// The response parsers append to the scratch they are given.
	gotRes, err := parseMGetResp([]GetResult{{Status: StatusFill}}, AppendMGetResp(nil, results))
	if err != nil || len(gotRes) != 3 || gotRes[0].Status != StatusFill || gotRes[1].Status != StatusHit || gotRes[2].Status != StatusMiss {
		t.Fatalf("mget resp: %+v, %v", gotRes, err)
	}
	// MPUT
	kvs := []KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: nil}}
	mpp, err := AppendMPutReq(nil, kvs)
	if err != nil {
		t.Fatal(err)
	}
	gotKeys, gotVals, err := decodeBatch(OpMPut, mpp)
	if err != nil || len(gotKeys) != 2 || gotKeys[0] != "a" || gotVals[0] != "1" || gotKeys[1] != "b" || gotVals[1] != "" {
		t.Fatalf("mput req: %q %q, %v", gotKeys, gotVals, err)
	}
	gotIns, err := ParseMPutResp([]bool{false}, AppendMPutResp(nil, []bool{true, false, true}))
	if err != nil || len(gotIns) != 4 || gotIns[0] || !gotIns[1] || gotIns[2] || !gotIns[3] {
		t.Fatalf("mput resp: %v, %v", gotIns, err)
	}
}

// TestPayloadLimits checks every limit is enforced on both encode and
// decode.
func TestPayloadLimits(t *testing.T) {
	bigKey := string(bytes.Repeat([]byte{'k'}, MaxKey+1))
	if _, err := AppendGetReq(nil, bigKey); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized key encode: %v", err)
	}
	if _, err := AppendPutReq(nil, "k", make([]byte, MaxValue+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized value encode: %v", err)
	}
	if _, err := AppendMGetReq(nil, make([]string, MaxBatch+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized mget batch encode: %v", err)
	}
	if _, err := AppendMPutReq(nil, make([]KV, MaxBatch+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized mput batch encode: %v", err)
	}
	// Decode side: a declared key length larger than the payload.
	if _, err := parseGetReq([]byte{0x05, 'a'}); !errors.Is(err, ErrPayload) {
		t.Errorf("short key decode: %v", err)
	}
	// Declared length over the limit (uvarint for MaxKey+1).
	if _, err := parseGetReq([]byte{0x81, 0x80, 0x04}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over-limit key decode: %v", err)
	}
	// Trailing garbage.
	gp, _ := AppendGetReq(nil, "k")
	if _, err := parseGetReq(append(gp, 0x00)); !errors.Is(err, ErrPayload) {
		t.Errorf("trailing bytes decode: %v", err)
	}
	// Batch count over the limit.
	if _, _, err := decodeBatch(OpMGet, []byte{0xff, 0xff, 0x7f}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over-limit batch count: %v", err)
	}
	// Invalid status bytes.
	if _, err := parseGetResp([]byte{9}); !errors.Is(err, ErrPayload) {
		t.Errorf("bad get status: %v", err)
	}
	if _, err := ParsePutResp([]byte{7}); !errors.Is(err, ErrPayload) {
		t.Errorf("bad put status: %v", err)
	}
	if _, err := ParseMPutResp(nil, []byte{0x01, 7}); !errors.Is(err, ErrPayload) {
		t.Errorf("bad mput status: %v", err)
	}
	// Empty payloads where content is mandatory.
	if _, err := parseGetResp(nil); !errors.Is(err, ErrPayload) {
		t.Errorf("empty get resp: %v", err)
	}
	if _, _, err := parsePutReq(nil); !errors.Is(err, ErrPayload) {
		t.Errorf("empty put req: %v", err)
	}
	if keys, _, err := decodeBatch(OpMPut, []byte{0x02, 0x01, 'a'}); !errors.Is(err, ErrPayload) || len(keys) != 0 {
		t.Errorf("truncated mput req: %v (applied %q)", err, keys)
	}
	if _, err := parseMGetResp(nil, []byte{0x01}); !errors.Is(err, ErrPayload) {
		t.Errorf("truncated mget resp: %v", err)
	}
	if _, err := ParseMPutResp(nil, []byte{0x02, 0x01}); !errors.Is(err, ErrPayload) {
		t.Errorf("truncated mput resp: %v", err)
	}
}

// TestOpString covers the diagnostics stringer.
func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpGet: "GET", OpPut: "PUT", OpMGet: "MGET", OpMPut: "MPUT",
		OpStats: "STATS", OpPing: "PING", OpErr: "ERR", Op(99): "Op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", byte(op), got, want)
		}
	}
	for st, want := range map[GetStatus]string{
		StatusMiss: "miss", StatusHit: "hit", StatusFill: "fill", GetStatus(9): "GetStatus(9)",
	} {
		if got := st.String(); got != want {
			t.Errorf("GetStatus(%d).String() = %q, want %q", byte(st), got, want)
		}
	}
}
