package proto

import (
	"encoding/binary"
	"hash/crc32"
)

// Range-management wire formats: RESET purges a set range, SNAP streams
// a range's state snapshot out, RESTORE streams one in. They exist so
// the cluster manager (cmd/rwpcluster -connect) and the warm-restart
// tooling can drive remote rwpserve nodes over the same connection the
// data path uses.
//
// RESET is an ordinary one-frame request/response and may be pipelined.
// SNAP and RESTORE move payloads far past MaxPayload, so they are
// chunked: each frame carries a flag byte and up to SnapChunk snapshot
// bytes, and the reassembled total is bounded by MaxSnapshot on both
// sides.
//
//	RESET   req: uvarint lo, uvarint hi      resp: uvarint purged
//	SNAP    req: uvarint lo, uvarint hi      resp: 1+ frames, each
//	         flag (0 more / 1 last) + chunk; or flag 2 + message —
//	         a server-side refusal that keeps the connection usable.
//	RESTORE req: 1+ frames, flag (0 more / 1 last) + chunk
//	        resp (after the last chunk only): status 0 + message
//	         (refused, cache untouched, connection usable) or
//	         status 1 + uvarint purged.

// SNAP/RESTORE chunk flags.
const (
	ChunkMore = 0 // more chunks follow
	ChunkLast = 1 // final chunk: the transfer is complete
	ChunkErr  = 2 // SNAP response only: refusal message instead of bytes
)

// AppendRangeReq appends a RESET/SNAP request payload (a set range).
func AppendRangeReq(dst []byte, lo, hi int) ([]byte, error) {
	if lo < 0 || hi < lo {
		return nil, wireErrf(ErrPayload, "invalid set range [%d,%d)", lo, hi)
	}
	dst = binary.AppendUvarint(dst, uint64(lo))
	return binary.AppendUvarint(dst, uint64(hi)), nil
}

// ParseRangeReq decodes a RESET/SNAP request payload. Bounds against
// the serving cache's set count are the server's job — the codec only
// guarantees a well-ordered range that fits in int.
func ParseRangeReq(payload []byte) (lo, hi int, err error) {
	p := parser{payload}
	l, err := p.uvarint("range lo")
	if err != nil {
		return 0, 0, err
	}
	h, err := p.uvarint("range hi")
	if err != nil {
		return 0, 0, err
	}
	const maxSets = 1 << 30
	if l > maxSets || h > maxSets || l > h {
		return 0, 0, wireErrf(ErrPayload, "invalid set range [%d,%d)", l, h)
	}
	if err := p.done(); err != nil {
		return 0, 0, err
	}
	return int(l), int(h), nil
}

// AppendResetResp appends a RESET response payload.
func AppendResetResp(dst []byte, purged int) []byte {
	return binary.AppendUvarint(dst, uint64(purged))
}

// ParseResetResp decodes a RESET response payload.
func ParseResetResp(payload []byte) (purged int, err error) {
	p := parser{payload}
	n, err := p.uvarint("purged count")
	if err != nil {
		return 0, err
	}
	if n > MaxSnapshot { // far beyond any real cache's entry count
		return 0, wireErrf(ErrPayload, "implausible purged count %d", n)
	}
	if err := p.done(); err != nil {
		return 0, err
	}
	return int(n), nil
}

// AppendChunk appends one SNAP-response / RESTORE-request chunk frame
// payload: the flag byte, then the chunk bytes (a refusal message for
// ChunkErr). The chunk must not exceed SnapChunk.
func AppendChunk(dst []byte, flag byte, chunk []byte) []byte {
	if len(chunk) > SnapChunk {
		panic("proto: chunk exceeds SnapChunk")
	}
	dst = append(dst, flag)
	return append(dst, chunk...)
}

// writeChunkFrame writes to w exactly the bytes of
// AppendFrame(nil, op, AppendChunk(nil, flag, chunk)) without building
// them: the frame header (appendFrameHeader) and the flag are appended
// to w's buffer and flushed with whatever it held, the chunk goes out as
// it is in a Write of its own, and the CRC-32C over both is appended to
// w's buffer, to go out with the next flush. The buffer never holds the
// chunk, so a transfer allocates nothing per chunk (pinned by
// TestChunkedTransferAllocs).
func writeChunkFrame(w *writer, op Op, flag byte, chunk []byte) error {
	if len(chunk) > SnapChunk {
		panic("proto: chunk exceeds SnapChunk")
	}
	start := len(w.buf)
	w.buf = append(appendFrameHeader(w.buf, op, 1+len(chunk)), flag)
	sum := crc32.Update(crc32.Checksum(w.buf[start:], castagnoli), castagnoli, chunk)
	if err := w.flush(); err != nil {
		return err
	}
	if len(chunk) > 0 {
		if _, err := w.w.Write(chunk); err != nil {
			return err
		}
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, sum)
	return nil
}

// writeChunks writes data as a run of chunk frames of SnapChunk bytes,
// the last one flagged ChunkLast (empty data is one empty last chunk).
// The last CRC is left in w's buffer for the caller's flush.
func writeChunks(w *writer, op Op, data []byte) error {
	for off := 0; ; off += SnapChunk {
		end, flag := off+SnapChunk, byte(ChunkMore)
		if end >= len(data) {
			end, flag = len(data), ChunkLast
		}
		if err := writeChunkFrame(w, op, flag, data[off:end]); err != nil {
			return err
		}
		if flag == ChunkLast {
			return nil
		}
	}
}

// ParseChunk decodes a chunk frame payload; the chunk aliases the
// payload.
func ParseChunk(payload []byte) (flag byte, chunk []byte, err error) {
	p := parser{payload}
	flag, err = p.byte1("chunk flag")
	if err != nil {
		return 0, nil, err
	}
	if flag > ChunkErr {
		return 0, nil, wireErrf(ErrPayload, "invalid chunk flag %d", flag)
	}
	if len(p.buf) > SnapChunk {
		return 0, nil, wireErrf(ErrTooLarge, "chunk %d bytes > max %d", len(p.buf), SnapChunk)
	}
	return flag, p.buf, nil
}

// AppendRestoreResp appends a RESTORE response payload: refused (status
// 0 + message) or applied (status 1 + uvarint purged).
func AppendRestoreResp(dst []byte, purged int, refusal string) []byte {
	if refusal != "" {
		dst = append(dst, 0)
		return append(dst, refusal...)
	}
	dst = append(dst, 1)
	return binary.AppendUvarint(dst, uint64(purged))
}

// ParseRestoreResp decodes a RESTORE response payload. A refusal comes
// back as (0, message, nil) — a server-side rejection, not a wire
// error; the connection stays usable.
func ParseRestoreResp(payload []byte) (purged int, refusal string, err error) {
	p := parser{payload}
	b, err := p.byte1("restore status")
	if err != nil {
		return 0, "", err
	}
	switch b {
	case 0:
		return 0, string(p.buf), nil
	case 1:
		n, err := p.uvarint("purged count")
		if err != nil {
			return 0, "", err
		}
		if n > MaxSnapshot {
			return 0, "", wireErrf(ErrPayload, "implausible purged count %d", n)
		}
		if err := p.done(); err != nil {
			return 0, "", err
		}
		return int(n), "", nil
	default:
		return 0, "", wireErrf(ErrPayload, "invalid restore status %d", b)
	}
}
