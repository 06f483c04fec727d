package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Backend is what a connection serves: the live cache's operation
// surface plus the rendered stats document. *live.Cache satisfies it
// directly — its StatsJSON is the one renderer behind the STATS frame,
// rwpserve's operator /stats endpoint and every -selftest, which is
// what makes the transports byte-comparable end to end.
type Backend interface {
	// Get looks up key. hit=false with val non-nil is a loader
	// backfill (StatusFill), matching live.Cache.Get.
	Get(key string) (val []byte, hit bool)
	// Put stores val under key, reporting whether it was newly
	// inserted.
	Put(key string, val []byte) (inserted bool)
	// StatsJSON renders the stats document, the STATS reply payload.
	StatsJSON() ([]byte, error)
}

// RangeBackend is the optional management surface behind the RESET,
// SNAP, and RESTORE ops. *live.Cache satisfies it directly; ServeConn
// discovers it by type assertion, so a minimal Backend (a test double,
// a proxy) still serves the data path and refuses management ops
// cleanly.
type RangeBackend interface {
	Backend
	// CheckRange reports why the backend cannot reset [lo, hi): the
	// range is out of bounds or cuts through state it manages whole.
	CheckRange(lo, hi int) error
	// ResetRange purges the sets in [lo, hi), returning entries purged.
	// The range is pre-validated with CheckRange by the server loop.
	ResetRange(lo, hi int) int
	// SnapBytes encodes a state snapshot of the sets in [lo, hi).
	SnapBytes(lo, hi int) ([]byte, error)
	// RestoreBytes decodes and applies a snapshot with catch-up
	// (RestoreRange) semantics, returning entries purged. A rejected
	// snapshot must leave the cache untouched.
	RestoreBytes(data []byte) (int, error)
}

// ByteBackend is the optional allocation-free data surface: the same
// two operations as Backend's Get and Put, with borrowed byte keys and a
// caller-supplied value buffer. *live.Cache satisfies it directly.
// ServeConn discovers it by type assertion, exactly as RangeBackend; a
// Backend without it is served by the same loop through stringBackend.
//
// Key lifetime: key (and val) are slices of the connection's frame
// scratch, valid only until the call returns — the next ReadFrame
// overwrites them. An implementation that retains a key must copy it.
//
// A decorator that embeds a ByteBackend (a struct embedding *live.Cache,
// say) and overrides Get/Put must override these two as well, or the
// promoted methods bypass it.
type ByteBackend interface {
	// GetAppend appends key's value to dst. found reports whether a
	// value was appended; hit=false with found=true is a loader
	// backfill (StatusFill).
	GetAppend(dst, key []byte) (out []byte, hit, found bool)
	// PutBytes stores val under key, reporting whether it was newly
	// inserted. val must be copied on store.
	PutBytes(key, val []byte) (inserted bool)
}

// stringBackend serves a plain Backend through the loop's byte-key
// calls, at the cost the string-keyed interface implies: one key copy
// per operation, plus whatever the Backend's Get allocates.
type stringBackend struct{ Backend }

func (a stringBackend) GetAppend(dst, key []byte) ([]byte, bool, bool) {
	val, hit := a.Get(string(key))
	return append(dst, val...), hit, hit || val != nil
}

func (a stringBackend) PutBytes(key, val []byte) bool { return a.Put(string(key), val) }

// errMGetTooLarge refuses an MGET whose response outgrew a frame.
var errMGetTooLarge = wireErrf(ErrTooLarge, "mget response exceeds max payload %d", MaxPayload)

// RestoreStager is a connection that ServeConn asks before it stages a
// RESTORE transfer: rwpserve admits one staged transfer per server, so
// a crowd of peers cannot each make it hold up to MaxSnapshot bytes.
// StageRestore is called at a transfer's first chunk; on false the
// transfer's chunks are read and dropped and its reply is a refusal,
// which leaves the connection usable. Every true is matched by one
// UnstageRestore once the transfer is applied or refused, or the
// connection ends.
type RestoreStager interface {
	StageRestore() bool
	UnstageRestore()
}

// refusedRestore is the refusal a transfer the stager did not admit
// gets.
const refusedRestore = "another RESTORE is being staged on this server"

// connServer is one connection's serving state: the backend, the
// connection's two buffers, and the scratch every request reuses, so a
// request that fits them allocates nothing.
type connServer struct {
	b       ByteBackend
	rb      RangeBackend // nil: management ops are refused
	stats   Backend      // renders the STATS reply
	r       Reader
	w       writer
	val     []byte // the value GetAppend just produced
	payload []byte // the response payload being built

	// The RESTORE transfer in progress, if any: its bytes so far, and
	// whether its chunks are staged in restoreBuf or dropped.
	stager     RestoreStager // conn, when it limits staging
	restoring  bool
	staged     bool
	restoreLen int
	restoreBuf []byte
}

// get serves one key, appending its outcome element (status, then the
// value unless miss) to the response payload.
func (s *connServer) get(key []byte) {
	var hit, found bool
	s.val, hit, found = s.b.GetAppend(s.val[:0], key)
	res := GetResult{Status: StatusMiss}
	switch {
	case hit:
		res = GetResult{Status: StatusHit, Value: s.val}
	case found:
		res = GetResult{Status: StatusFill, Value: s.val}
	}
	s.payload = appendGetItem(s.payload, res)
}

// batch walks one MGET or MPUT request payload in place — no key, pair
// or flag slice is built. With apply false it only validates; ServeConn
// runs that pass to the end before the applying pass, so a batch with a
// malformed element anywhere applies nothing. With apply true it issues
// the per-key Gets/Puts in request order (the semantics contract),
// encoding each outcome as it goes.
func (s *connServer) batch(op Op, req []byte, apply bool) error {
	p := parser{req}
	n, err := p.count()
	if err != nil {
		return err
	}
	if apply {
		s.payload = binary.AppendUvarint(s.payload, uint64(n))
	}
	for i := 0; i < n; i++ {
		key, err := p.chunk("key", MaxKey)
		if err != nil {
			return err
		}
		var val []byte
		if op == OpMPut {
			if val, err = p.chunk("value", MaxValue); err != nil {
				return err
			}
		}
		switch {
		case !apply:
		case op == OpMPut:
			s.payload = AppendPutResp(s.payload, s.b.PutBytes(key, val))
		default:
			// Bound the growing response: a batch of large values can
			// push the payload past MaxPayload even when every
			// per-element limit holds, and AppendFrame panics rather than
			// frame it. Refusing mid-batch leaves the remaining Gets
			// unissued, which is fine — the connection is closing anyway.
			if s.get(key); len(s.payload) > MaxPayload {
				return errMGetTooLarge
			}
		}
	}
	return p.done()
}

// ServeConn runs the pipelined request loop for one connection until
// the peer closes it (clean: returns nil) or violates the protocol
// (writes one ERR frame with the reason, then returns the error — the
// caller closes the connection). Batch ops issue their per-key
// Gets/Puts in request order, so a request stream has identical cache
// semantics through this loop and through direct calls.
//
// Pipelining: responses are appended to the connection's write buffer
// and flushed when no complete request frame is buffered, so a burst of
// n requests costs one Write, not n, and a frame still arriving never
// holds back the replies to the frames before it.
//
// The server never retains request bytes: keys and values reach the
// backend as slices of the read buffer (see ByteBackend), and a GET
// hit, an MGET of resident keys and a PUT overwrite against a
// ByteBackend allocate nothing (pinned by TestServeConnAllocs).
func ServeConn(conn io.ReadWriter, b Backend) error {
	return newConnServer(conn, b).serve()
}

// newConnServer sets up one connection's serving state.
func newConnServer(conn io.ReadWriter, b Backend) *connServer {
	s := &connServer{stats: b, r: newReader(conn), w: writer{w: conn}}
	s.rb, _ = b.(RangeBackend)
	s.stager, _ = conn.(RestoreStager)
	if bb, ok := b.(ByteBackend); ok {
		s.b = bb
	} else {
		s.b = stringBackend{b}
	}
	return s
}

// serve is ServeConn's loop.
func (s *connServer) serve() error {
	defer s.endRestore()
	for {
		// Flush before a read that would block: everything the peer
		// pipelined has been answered.
		if !s.r.frameBuffered() {
			if err := s.w.flush(); err != nil {
				return err
			}
		}
		op, req, err := s.r.ReadFrame()
		if err != nil {
			if err == io.EOF {
				return s.w.flush() // clean close at a frame boundary
			}
			// A read deadline firing (the graceful-shutdown nudge in
			// cmd/rwpserve) is not a peer mistake: flush what is owed
			// and hang up without a spurious ERR frame.
			var to interface{ Timeout() bool }
			if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &to) && to.Timeout()) {
				s.w.flush()
				return err
			}
			// Best effort: tell the peer why before hanging up.
			return s.refuse(err)
		}
		s.payload = s.payload[:0]
		switch op {
		case OpGet:
			key, perr := parseGetReq(req)
			if perr != nil {
				return s.refuse(perr)
			}
			s.get(key)
		case OpPut:
			key, val, perr := parsePutReq(req)
			if perr != nil {
				return s.refuse(perr)
			}
			s.payload = AppendPutResp(s.payload, s.b.PutBytes(key, val))
		case OpMGet, OpMPut:
			perr := s.batch(op, req, false)
			if perr == nil {
				perr = s.batch(op, req, true)
			}
			if perr != nil {
				return s.refuse(perr)
			}
		case OpStats:
			doc, serr := s.stats.StatsJSON()
			if serr != nil {
				return s.refuse(serr)
			}
			if len(doc) > MaxPayload {
				return s.refuse(wireErrf(ErrTooLarge, "stats document %d bytes", len(doc)))
			}
			s.payload = append(s.payload, doc...)
		case OpPing:
			s.payload = append(s.payload, req...)
		case OpReset:
			lo, hi, perr := ParseRangeReq(req)
			if perr != nil {
				return s.refuse(perr)
			}
			if s.rb == nil {
				return s.refuse(wireErrf(ErrOp, "backend does not support RESET"))
			}
			if cerr := s.rb.CheckRange(lo, hi); cerr != nil {
				return s.refuse(wireErrf(ErrPayload, "reset: %v", cerr))
			}
			s.payload = AppendResetResp(s.payload, s.rb.ResetRange(lo, hi))
		case OpSnap:
			// Chunked response: write the frames here and skip the
			// single-frame tail. Refusals travel as a ChunkErr frame, not
			// an ERR frame — the connection stays usable so the caller
			// (cluster catch-up) can fall back to RESET on it.
			lo, hi, perr := ParseRangeReq(req)
			if perr != nil {
				return s.refuse(perr)
			}
			if err := s.writeSnapFrames(lo, hi); err != nil {
				return err
			}
			continue
		case OpRestore:
			flag, chunk, perr := ParseChunk(req)
			if perr != nil || flag == ChunkErr {
				if perr == nil {
					perr = wireErrf(ErrPayload, "restore chunk with error flag")
				}
				return s.refuse(perr)
			}
			if !s.restoring {
				s.restoring = true
				s.staged = s.stager == nil || s.stager.StageRestore()
			}
			if s.restoreLen += len(chunk); s.restoreLen > MaxSnapshot {
				return s.refuse(wireErrf(ErrTooLarge, "restore exceeds max snapshot %d", MaxSnapshot))
			}
			if s.staged {
				s.restoreBuf = append(s.restoreBuf, chunk...)
			}
			if flag == ChunkMore {
				continue // reply comes after the last chunk
			}
			if s.staged {
				s.payload = appendRestoreOutcome(s.payload, s.rb, s.restoreBuf)
			} else {
				s.payload = AppendRestoreResp(s.payload, 0, refusedRestore)
			}
			s.endRestore()
		default: // OpErr from a peer is itself a protocol violation
			return s.refuse(wireErrf(ErrOp, "unexpected %v request", op))
		}
		s.w.buf = AppendFrame(s.w.buf, op, s.payload)
		if err := s.w.spill(); err != nil {
			return err
		}
	}
}

// writeSnapFrames answers one SNAP request: the snapshot bytes chunked
// into SnapChunk-sized frames, or a single ChunkErr frame carrying the
// refusal. Only transport failures are returned — a refused snapshot is
// the peer's problem, not the connection's.
func (s *connServer) writeSnapFrames(lo, hi int) error {
	refusal := ""
	var data []byte
	switch {
	case s.rb == nil:
		refusal = "backend does not support SNAP"
	default:
		var err error
		if data, err = s.rb.SnapBytes(lo, hi); err != nil {
			refusal = err.Error()
		} else if len(data) > MaxSnapshot {
			refusal = fmt.Sprintf("snapshot %d bytes > max %d", len(data), MaxSnapshot)
		}
	}
	if refusal != "" {
		return writeChunkFrame(&s.w, OpSnap, ChunkErr, []byte(refusal))
	}
	return writeChunks(&s.w, OpSnap, data)
}

// endRestore forgets the RESTORE transfer in progress, giving its
// staging back to the stager.
func (s *connServer) endRestore() {
	if s.staged && s.stager != nil {
		s.stager.UnstageRestore()
	}
	s.restoring, s.staged, s.restoreLen, s.restoreBuf = false, false, 0, nil
}

// appendRestoreOutcome applies a fully reassembled RESTORE transfer and
// encodes the outcome. A decode/validation failure is a refusal, not a
// wire error: the backend guarantees the cache is untouched, and the
// connection stays usable.
func appendRestoreOutcome(payload []byte, rb RangeBackend, data []byte) []byte {
	if rb == nil {
		return AppendRestoreResp(payload, 0, "backend does not support RESTORE")
	}
	purged, err := rb.RestoreBytes(data)
	if err != nil {
		return AppendRestoreResp(payload, 0, err.Error())
	}
	return AppendRestoreResp(payload, purged, "")
}

// refuse reports err to the peer as an ERR frame, after the replies
// already owed, and returns it.
func (s *connServer) refuse(err error) error {
	s.w.buf = AppendFrame(s.w.buf, OpErr, []byte(err.Error()))
	s.w.flush()
	return err
}

// IsWireError reports whether err is a protocol violation (as opposed
// to a transport failure) — the server logs the two differently.
func IsWireError(err error) bool {
	var we *WireError
	return errors.As(err, &we)
}
