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
// clock, no randomness, no map iteration — so it is rwplint-clean
// under the same rules as the rest of internal/ and adds nothing to
// the nondeterminism surface beyond the sockets it reads.
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
//
//rwplint:hotpath — runs once per frame on the serving path; appends amortize into dst
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

// Reader decodes frames from a byte stream. It reads exactly one
// frame's bytes per call — it never over-reads past the CRC — so it
// can share the underlying reader with nothing else but needs no
// pushback. Memory is bounded: the payload buffer grows to the largest
// declared (and validated) payload seen, never past MaxPayload.
type Reader struct {
	r   io.Reader
	buf []byte // reused scratch: header + payload + crc of the current frame
	// lenb is the single-byte scratch for the length-uvarint read loop.
	// As a field it stays on the Reader; as a loop-local it escaped into
	// the io.Reader call and cost one heap allocation per length byte.
	lenb [1]byte
}

// NewReader wraps r. For a net.Conn, wrap in a bufio.Reader first if
// you also need Buffered() for pipelined flushing (server.go does).
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadFrame reads and verifies the next frame, returning its opcode
// and payload. The payload aliases an internal buffer that is
// overwritten by the next call — copy it to retain it. io.EOF is
// returned only at a clean frame boundary; a frame truncated mid-way
// yields io.ErrUnexpectedEOF.
//
// Steady state it allocates nothing (pinned by TestReadFrameAllocs):
// the scratch buffer grows to the connection's high-water payload and
// is reused; the remaining allocations below are one-time, amortized,
// or on error paths that end the connection.
//
//rwplint:hotpath — runs once per frame on the serving path
func (r *Reader) ReadFrame() (Op, []byte, error) {
	// Fixed header: magic, version, opcode.
	if cap(r.buf) < headerSize {
		//rwplint:allow hotalloc — one-time scratch init on a Reader's first frame
		r.buf = make([]byte, 64)
	}
	hdr := r.buf[:headerSize]
	if _, err := io.ReadFull(r.r, hdr[:1]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return 0, nil, err // clean boundary: nothing read
	}
	if _, err := io.ReadFull(r.r, hdr[1:]); err != nil {
		return 0, nil, truncated(err)
	}
	if hdr[0] != Magic0 || hdr[1] != Magic1 {
		//rwplint:allow hotalloc — error path: the connection is about to close
		return 0, nil, wireErrf(ErrMagic, "got %#02x %#02x", hdr[0], hdr[1])
	}
	if hdr[2] != Version {
		//rwplint:allow hotalloc — error path: the connection is about to close
		return 0, nil, wireErrf(ErrVersion, "got %d, want %d", hdr[2], Version)
	}
	op := Op(hdr[3])
	if !op.Valid() {
		//rwplint:allow hotalloc — error path: the connection is about to close
		return 0, nil, wireErrf(ErrOp, "opcode %d", hdr[3])
	}

	// Payload length: uvarint read byte by byte so we never consume
	// past the frame.
	frame := append(r.buf[:0], hdr...)
	var plen uint64
	for shift := uint(0); ; shift += 7 {
		if _, err := io.ReadFull(r.r, r.lenb[:]); err != nil {
			return 0, nil, truncated(err)
		}
		b := r.lenb[0]
		frame = append(frame, b)
		plen |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		if shift >= 28 { // > 5 bytes cannot stay under MaxPayload
			return 0, nil, wireErrf(ErrTooLarge, "payload length uvarint overflows")
		}
	}
	if plen > MaxPayload {
		//rwplint:allow hotalloc — error path: the connection is about to close
		return 0, nil, wireErrf(ErrTooLarge, "payload %d > max %d", plen, MaxPayload)
	}

	// Payload + CRC.
	n := len(frame)
	need := n + int(plen) + crcSize
	if cap(frame) < need {
		//rwplint:allow hotalloc — amortized: scratch grows to the high-water payload, then is reused
		grown := make([]byte, need)
		copy(grown, frame)
		frame = grown[:n]
	}
	frame = frame[:need]
	if _, err := io.ReadFull(r.r, frame[n:]); err != nil {
		return 0, nil, truncated(err)
	}
	r.buf = frame[:0]
	body, crc := frame[:need-crcSize], frame[need-crcSize:]
	want := binary.LittleEndian.Uint32(crc)
	if got := crc32.Checksum(body, castagnoli); got != want {
		//rwplint:allow hotalloc — error path: the connection is about to close
		return 0, nil, wireErrf(ErrCRC, "got %#08x, want %#08x", got, want)
	}
	return op, body[n:], nil
}

// truncated maps an io error inside a frame to ErrUnexpectedEOF.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
