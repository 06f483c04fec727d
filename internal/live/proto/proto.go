// Package proto is the live cache's binary wire protocol: a
// length-prefixed, CRC-guarded frame format plus a pipelined client
// (client.go) and the per-connection server loop (server.go) that
// cmd/rwpserve mounts behind its -tcp listener.
//
// It is the only data wire. A request-per-operation transport makes
// the transport, not the cache, the bottleneck under load: one TCP
// round trip, one request parse and one response header per
// operation. This protocol removes all three costs — frames are cheap
// to parse, many requests ride one write (pipelining), and MGET/MPUT
// batch many keys into one frame — while keeping the cache semantics
// bit-identical: a batch maps to per-key live.Cache Gets/Puts issued
// in request order, so a single-goroutine stream produces
// byte-identical /stats over the wire and in process (the differential
// tests in cmd/rwpserve enforce exactly that).
//
// # Frame layout
//
// Every message — request or response — is one frame:
//
//	offset  size      field
//	0       2         magic "RW" (0x52 0x57)
//	2       1         version (currently 1)
//	3       1         opcode
//	4       1..5      payload length (uvarint, ≤ MaxPayload)
//	…       length    payload (opcode-specific, see payload.go)
//	…       4         CRC-32C (Castagnoli) of every preceding byte,
//	                  little-endian
//
// The CRC covers the header as well as the payload, so a bit flip
// anywhere in the frame is detected. Within payloads, keys and values
// are uvarint length-prefixed byte strings and batch payloads carry a
// uvarint element count; every declared length is validated against
// MaxKey/MaxValue/MaxBatch and against the bytes actually present
// before any allocation, so a malicious length cannot make the reader
// allocate unboundedly (the fuzz targets pin this down).
//
// Determinism: this package is pure codec + blocking I/O — no wall
// clock, no randomness, no map iteration — so it adds nothing to the
// nondeterminism surface beyond the sockets it reads.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Op is a frame opcode. Responses reuse the request's opcode (a
// pipelined client matches replies to requests purely by order); Err
// is response-only and reports a protocol-level failure before the
// server closes the connection.
type Op byte

const (
	OpGet   Op = 1 // one key → status + value
	OpPut   Op = 2 // one key+value → inserted/overwrote
	OpMGet  Op = 3 // batch of keys → per-key status + value
	OpMPut  Op = 4 // batch of key+value → per-key inserted
	OpStats Op = 5 // no payload → the /stats JSON document
	OpPing  Op = 6 // payload echoed back verbatim
	OpErr   Op = 7 // response-only: error message, connection closes

	// Range-management ops (see range.go). They serve the cluster
	// manager and warm-restart tooling, not the data path.
	OpReset   Op = 8  // set range → entries purged
	OpSnap    Op = 9  // set range → snapshot bytes, chunked across frames
	OpRestore Op = 10 // snapshot bytes, chunked across frames → entries purged
)

// String names the opcode for diagnostics.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpMGet:
		return "MGET"
	case OpMPut:
		return "MPUT"
	case OpStats:
		return "STATS"
	case OpPing:
		return "PING"
	case OpErr:
		return "ERR"
	case OpReset:
		return "RESET"
	case OpSnap:
		return "SNAP"
	case OpRestore:
		return "RESTORE"
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// Valid reports whether o is an opcode a conforming peer may send.
func (o Op) Valid() bool { return o >= OpGet && o <= OpRestore }

// Wire-format constants. The limits bound the memory any single frame
// can make a reader allocate; the Append* payload builders enforce
// them on the encode side, so well-formed batches stay under
// MaxPayload by construction.
const (
	Magic0  = 'R'
	Magic1  = 'W'
	Version = 1

	// MaxPayload caps a frame's payload length.
	MaxPayload = 4 << 20
	// MaxKey caps one key's length.
	MaxKey = 1 << 16
	// MaxValue caps one value's length.
	MaxValue = 1 << 20
	// MaxBatch caps the element count of an MGET/MPUT frame.
	MaxBatch = 1 << 16

	// SnapChunk is the snapshot bytes carried per SNAP/RESTORE frame —
	// comfortably under MaxPayload so the flag byte and framing fit.
	SnapChunk = 1 << 20
	// MaxSnapshot caps the reassembled size of a chunked snapshot on
	// both sides, bounding what one transfer can make a peer hold.
	MaxSnapshot = 64 << 20

	// headerSize is the fixed prefix before the length uvarint.
	headerSize = 4
	// crcSize trails every frame.
	crcSize = 4
)

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Protocol errors. ErrCRC and friends wrap into *WireError with
// context; errors.Is still matches the sentinels.
var (
	ErrMagic    = errors.New("proto: bad magic")
	ErrVersion  = errors.New("proto: unsupported version")
	ErrOp       = errors.New("proto: invalid opcode")
	ErrTooLarge = errors.New("proto: length exceeds limit")
	ErrCRC      = errors.New("proto: CRC mismatch")
	ErrPayload  = errors.New("proto: malformed payload")
)

// WireError is a protocol violation with frame context.
type WireError struct {
	Kind error  // one of the sentinel errors above
	Msg  string // human detail
}

// Error implements error.
func (e *WireError) Error() string { return e.Kind.Error() + ": " + e.Msg }

// Unwrap lets errors.Is match the sentinel.
func (e *WireError) Unwrap() error { return e.Kind }

// wireErrf builds a *WireError.
func wireErrf(kind error, format string, args ...any) error {
	return &WireError{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// AppendFrame appends one complete frame (header, payload, CRC) to dst
// and returns the extended slice. It panics if payload exceeds
// MaxPayload — callers construct payloads through the Encode helpers,
// which enforce the limits with errors first.
func AppendFrame(dst []byte, op Op, payload []byte) []byte {
	if len(payload) > MaxPayload {
		panic("proto: AppendFrame payload exceeds MaxPayload")
	}
	start := len(dst)
	dst = appendFrameHeader(dst, op, len(payload))
	dst = append(dst, payload...)
	sum := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// appendFrameHeader appends the frame prefix that precedes n payload
// bytes: magic, version, opcode and the uvarint length. The CRC-32C that
// trails the frame covers this prefix and the payload.
func appendFrameHeader(dst []byte, op Op, n int) []byte {
	dst = append(dst, Magic0, Magic1, Version, byte(op))
	return binary.AppendUvarint(dst, uint64(n))
}

// Connection buffers. Each direction of a connection has one buffer of
// its own, sized by the traffic rather than fixed:
//
//   - A Reader's buffer starts at readMin and grows to fit one frame.
//   - A write buffer starts empty and grows as frames are appended to
//     it; it is written out whenever it reaches flushAt, so a burst up
//     to that size costs one Write, and it never holds more than flushAt
//     plus one frame.
//
// Either buffer is given back once it is more than retainFactor times
// what the connection's frames (read side) or bursts (write side) need
// — the rule live.Cache applies to an entry's buffer — but never below
// its floor, readMin or flushAt: below that, keeping it saves the
// allocations of growing it again. A connection that carried one
// outsized frame returns to a few KiB. A Client's reply values follow
// the same rule over the values of one Flush, with readMin as floor.
const (
	readMin      = 4 << 10
	flushAt      = 64 << 10
	retainFactor = 4
)

// Reader decodes frames from a byte stream. It reads ahead into its one
// buffer — each fill is a single Read into the buffer's spare capacity
// — and decodes frames in place from it, so the underlying reader must
// not be shared. Memory is bounded: the buffer grows to fit the frame
// being read, whose declared length is validated first, and so never
// past MaxPayload plus framing.
type Reader struct {
	r    io.Reader
	mid  MidFrameReader // r, when it wants mid-frame reads told apart
	buf  []byte         // buf[off:] is read from r and not yet returned
	off  int
	pos  int64  // stream offset of buf[0]
	last [2]int // sizes of the last two frames returned, the fills' sizing hint
	err  error  // read error met behind the buffered bytes, reported once
}

// MidFrameReader is a stream that a Reader reads through ReadMidFrame
// whenever part of a frame is already buffered, and through Read only
// at a frame boundary. frame names the frame being completed by its
// first byte's offset in the stream, so the stream can tell one frame
// that is slow to arrive from a run of frames that each arrive in
// parts. rwpserve bounds the time a peer may take to finish a frame
// this way, and never times out a peer idle between frames. The
// interface carries no clock.
type MidFrameReader interface {
	io.Reader
	ReadMidFrame(p []byte, frame int64) (int, error)
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	rd := newReader(r)
	return &rd
}

// newReader is NewReader for a Reader held by value.
func newReader(r io.Reader) Reader {
	mid, _ := r.(MidFrameReader)
	return Reader{r: r, mid: mid}
}

// frameSize parses the frame header at the front of b and returns the
// whole frame's size (header, payload and CRC) and the payload's offset
// in it. size is 0 while b holds too little of the header to tell; a
// header it has whole is validated.
func frameSize(b []byte) (size, start int, err error) {
	if len(b) < headerSize {
		return 0, 0, nil
	}
	if b[0] != Magic0 || b[1] != Magic1 {
		return 0, 0, wireErrf(ErrMagic, "got %#02x %#02x", b[0], b[1])
	}
	if b[2] != Version {
		return 0, 0, wireErrf(ErrVersion, "got %d, want %d", b[2], Version)
	}
	if !Op(b[3]).Valid() {
		return 0, 0, wireErrf(ErrOp, "opcode %d", b[3])
	}
	var plen uint64
	for i, shift := headerSize, uint(0); i < len(b); i, shift = i+1, shift+7 {
		c := b[i]
		plen |= uint64(c&0x7f) << shift
		if c < 0x80 {
			if plen > MaxPayload {
				return 0, 0, wireErrf(ErrTooLarge, "payload %d > max %d", plen, MaxPayload)
			}
			return i + 1 + int(plen) + crcSize, i + 1, nil
		}
		if shift >= 28 { // > 5 bytes cannot stay under MaxPayload
			return 0, 0, wireErrf(ErrTooLarge, "payload length uvarint overflows")
		}
	}
	return 0, 0, nil
}

// frameBuffered reports whether a whole frame is buffered, so that the
// next ReadFrame returns it without reading from the connection.
func (r *Reader) frameBuffered() bool {
	size, _, err := frameSize(r.buf[r.off:])
	return err == nil && size > 0 && size <= len(r.buf)-r.off
}

// ReadFrame reads and verifies the next frame, returning its opcode
// and payload. The payload aliases the reader's buffer, which the next
// call may overwrite — copy it to retain it. io.EOF is returned only at
// a clean frame boundary; a frame truncated mid-way yields
// io.ErrUnexpectedEOF.
//
// Steady state it allocates nothing (pinned by TestReadFrameAllocs):
// the buffer changes size only when a frame outgrows it or the frames
// have become small next to it (see fill).
func (r *Reader) ReadFrame() (Op, []byte, error) {
	for {
		b := r.buf[r.off:]
		size, start, err := frameSize(b)
		if err != nil {
			return 0, nil, err
		}
		if size > 0 && size <= len(b) {
			frame := b[:size]
			r.off += size
			r.last = [2]int{size, r.last[0]}
			body := frame[:size-crcSize]
			want := binary.LittleEndian.Uint32(frame[size-crcSize:])
			if got := crc32.Checksum(body, castagnoli); got != want {
				return 0, nil, wireErrf(ErrCRC, "got %#08x, want %#08x", got, want)
			}
			return Op(frame[3]), body[start:], nil
		}
		if err := r.fill(size); err != nil {
			if err == io.EOF && len(b) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
}

// fill reads once more into the buffer's spare capacity. size is the
// size of the frame in progress, 0 while its header is incomplete.
//
// Before reading, fill moves the unreturned bytes — part of one frame —
// to the front of the buffer, or into a new buffer when there is none
// yet, when this one is too small for the frame in progress, or when it
// is more than retainFactor times the largest of the frame in progress
// and the last two. So a run of large frames (a chunked transfer), or
// large frames alternating with small ones, keep one buffer, and two
// small frames in a row give a large buffer back. With part of a frame
// buffered, the read goes through the stream's ReadMidFrame when it has
// one (see MidFrameReader).
func (r *Reader) fill(size int) error {
	if err := r.err; err != nil {
		r.err = nil
		return err
	}
	rest := r.buf[r.off:]
	r.pos += int64(r.off) // rest moves to the front of the buffer
	if need := max(size, r.last[0], r.last[1]); cap(r.buf) < max(size, readMin) || cap(r.buf) > max(retainFactor*need, readMin) {
		buf := make([]byte, len(rest), max(need, readMin))
		copy(buf, rest)
		r.buf = buf
	} else if r.off > 0 {
		r.buf = r.buf[:copy(r.buf, rest)]
	}
	r.off = 0
	// Like bufio: a reader that keeps returning nothing is an error,
	// not a reason to spin.
	for range 100 {
		var n int
		var err error
		if p := r.buf[len(r.buf):cap(r.buf)]; len(rest) > 0 && r.mid != nil {
			n, err = r.mid.ReadMidFrame(p, r.pos)
		} else {
			n, err = r.r.Read(p)
		}
		r.buf = r.buf[:len(r.buf)+n]
		if n > 0 {
			r.err = err
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// writer is one connection's write side: frames are appended in place
// to buf and go out in one Write per flush.
type writer struct {
	w   io.Writer
	buf []byte
}

// flush writes the buffered frames in one Write. The buffer is kept for
// the next burst unless an outsized frame grew it past flushAt and the
// burst just written used less than 1/retainFactor of it.
func (w *writer) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	w.buf = reuse(w.buf, flushAt)
	return err
}

// reuse empties a buffer whose contents are spent, for the next use: b
// itself, or nil when it is more than retainFactor times its last use
// (len(b)) and past floor, so one outsized use does not pin its size.
func reuse(b []byte, floor int) []byte {
	if cap(b) > max(retainFactor*len(b), floor) {
		return nil
	}
	return b[:0]
}

// spill flushes a burst that has reached flushAt.
func (w *writer) spill() error {
	if len(w.buf) < flushAt {
		return nil
	}
	return w.flush()
}
