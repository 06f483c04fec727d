package proto

import (
	"errors"
	"fmt"
	"io"
)

// ErrClosed is returned by every Client method after Close. It is a
// typed sentinel (match with errors.Is) so multi-connection callers —
// the cluster router keeps one Client per node — can tell an
// orderly-shutdown race from a wire failure.
var ErrClosed = errors.New("proto: client closed")

// Client speaks the binary protocol over one connection (any
// io.ReadWriter: a net.Conn in production, a net.Pipe or loopback
// socket in tests). It is not safe for concurrent use — one client per
// goroutine, like a database/sql connection.
//
// Two modes share the connection:
//
//   - Synchronous: Get/Put/MGet/MPut/Stats/Ping each write one frame,
//     flush, and read the reply.
//   - Pipelined: Queue* methods buffer request frames locally; Flush
//     writes them all in one burst and reads the replies in order. The
//     pipeline depth is simply how many requests were queued.
//
// Both modes preserve request order end to end, which is what lets the
// differential tests demand byte-identical stats at any depth.
type Client struct {
	conn    io.ReadWriter
	w       writer // queued request frames
	r       Reader
	pending []request // requests queued since the last Flush, in order
	err     error     // first write failure; poisons the client (see Flush)
	closed  bool
	// payload is the request scratch every Queue* call builds into and
	// queue frames into w before returning.
	payload []byte
	// replies, gets, ins and vals are the reply scratch Flush decodes
	// into and hands out: every Reply, the Gets and Inserts of every
	// MGET and MPUT reply, and every GET and MGET value, of one Flush.
	replies []Reply
	gets    []GetResult
	ins     []bool
	vals    []byte
}

// request is one queued request: its op and, for MGET and MPUT, how
// many elements its reply must carry.
type request struct {
	op Op
	n  int
}

// NewClient wraps conn.
func NewClient(conn io.ReadWriter) *Client {
	return &Client{conn: conn, w: writer{w: conn}, r: newReader(conn)}
}

// Close marks the client unusable — every later call returns ErrClosed
// — and closes the underlying connection when it is an io.Closer.
// Closing twice is a no-op returning ErrClosed.
func (c *Client) Close() error {
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	if cl, ok := c.conn.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// check gates every operation on the client's liveness: ErrClosed
// after Close, else the sticky first write error. A client that saw a
// write fail mid-queue holds frames it could not finish framing, so
// letting a later Flush write-and-read would report a confusing
// downstream read error (or hang) instead of the root cause.
func (c *Client) check() error {
	if c.closed {
		return ErrClosed
	}
	return c.err
}

// Reply is one response in Flush order. Exactly the fields implied by
// Op are meaningful.
//
// A reply lives in the client's scratch: the []Reply, the Gets and
// Inserts in it and every Value are valid until the next call on the
// client, which reuses their memory. Copy what must live longer. Only
// Data (STATS, PING) is the caller's for good. A call whose replies
// carry no values — SnapRange, Restore, ResetRange — leaves the last
// values intact.
type Reply struct {
	Op       Op
	Get      GetResult   // OpGet
	Inserted bool        // OpPut
	Gets     []GetResult // OpMGet, in request order
	Inserts  []bool      // OpMPut, in request order
	Data     []byte      // OpStats (JSON document) / OpPing (echo)
	Purged   int         // OpReset: entries dropped by the range reset
}

// queue frames one request into the write buffer. A write failure (the
// buffer only hits the connection early when a burst reaches flushAt) is
// recorded as the client's sticky error so Flush reports it instead of a
// downstream read error.
func (c *Client) queue(req request, payload []byte) error {
	if err := c.check(); err != nil {
		return err
	}
	c.w.buf = AppendFrame(c.w.buf, req.op, payload)
	if err := c.w.spill(); err != nil {
		c.err = err
		return err
	}
	c.pending = append(c.pending, req)
	return nil
}

// queueBuilt frames the request payload a builder appended to the
// client's scratch, keeping the (possibly grown) scratch for the next
// request. A builder that refused its input returns err and no payload.
func (c *Client) queueBuilt(req request, payload []byte, err error) error {
	if err != nil {
		return err
	}
	c.payload = payload[:0]
	return c.queue(req, payload)
}

// keep copies v out of the reader's frame scratch, which the next frame
// overwrites, into the client's value scratch, which lasts until the
// next Flush. nil stays nil and a zero-length value stays non-nil (the
// Value-nil-iff-miss rule). Each value's capacity ends where its bytes
// do, so appending to one cannot reach its neighbour.
func (c *Client) keep(v []byte) []byte {
	switch {
	case v == nil:
		return nil
	case len(v) == 0:
		return []byte{}
	}
	n := len(c.vals)
	c.vals = append(c.vals, v...)
	return c.vals[n:len(c.vals):len(c.vals)]
}

// QueueGet pipelines a GET.
func (c *Client) QueueGet(key string) error {
	p, err := AppendGetReq(c.payload[:0], key)
	return c.queueBuilt(request{op: OpGet}, p, err)
}

// QueuePut pipelines a PUT.
func (c *Client) QueuePut(key string, val []byte) error {
	p, err := AppendPutReq(c.payload[:0], key, val)
	return c.queueBuilt(request{op: OpPut}, p, err)
}

// QueueMGet pipelines a batch GET.
func (c *Client) QueueMGet(keys []string) error {
	p, err := AppendMGetReq(c.payload[:0], keys)
	return c.queueBuilt(request{op: OpMGet, n: len(keys)}, p, err)
}

// QueueMPut pipelines a batch PUT.
func (c *Client) QueueMPut(kvs []KV) error {
	p, err := AppendMPutReq(c.payload[:0], kvs)
	return c.queueBuilt(request{op: OpMPut, n: len(kvs)}, p, err)
}

// QueueReset pipelines a RESET of the global sets [lo, hi).
func (c *Client) QueueReset(lo, hi int) error {
	p, err := AppendRangeReq(c.payload[:0], lo, hi)
	return c.queueBuilt(request{op: OpReset}, p, err)
}

// QueueStats pipelines a STATS request.
func (c *Client) QueueStats() error { return c.queue(request{op: OpStats}, nil) }

// QueuePing pipelines a PING carrying payload.
func (c *Client) QueuePing(payload []byte) error { return c.queue(request{op: OpPing}, payload) }

// Depth returns the number of requests queued since the last Flush.
func (c *Client) Depth() int { return len(c.pending) }

// Flush writes every queued request in one burst and reads their
// replies in order. On a protocol error (including an ERR frame from
// the server) the connection is no longer usable.
//
// Bound your bursts: Flush writes every queued frame before reading
// any reply. If the queued request bytes plus the responses they
// elicit exceed what the two sockets' kernel buffers (plus the
// server's 64 KiB write buffer, which force-flushes when full) can
// hold in flight, both ends block on write and the connection
// deadlocks. Keep the queued request bytes plus the expected response
// bytes of one Flush in the tens of KiB — split deeper pipelines across
// multiple Flushes.
//
// The returned replies, values included, are the client's scratch,
// valid until the next call on the client (the rule Reader.ReadFrame
// states for its payload; see Reply). In the steady state a Flush
// allocates nothing (pinned by TestClientFlushAllocs).
func (c *Client) Flush() ([]Reply, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	if err := c.w.flush(); err != nil {
		// The write side is broken: report the write error now (and on
		// every later call) rather than letting the reply reads surface
		// a later, less diagnostic read error.
		c.err = err
		return nil, err
	}
	// The last Flush's replies are spent. Clear them too: a stale
	// GetResult past the new length would keep an outsized value buffer
	// that reuse gave back reachable.
	clear(c.replies)
	clear(c.gets)
	c.replies, c.gets, c.ins = c.replies[:0], c.gets[:0], c.ins[:0]
	c.vals = reuse(c.vals, readMin)
	want := c.pending
	c.pending = c.pending[:0]
	for _, sent := range want {
		op, payload, err := c.r.ReadFrame()
		if err != nil {
			return c.replies, c.fail(err)
		}
		if op == OpErr {
			return c.replies, c.fail(wireErrf(ErrPayload, "server error: %s", payload))
		}
		if op != sent.op {
			return c.replies, c.fail(wireErrf(ErrOp, "reply op %v for %v request", op, sent.op))
		}
		rep := Reply{Op: op}
		switch op {
		case OpGet:
			rep.Get, err = parseGetResp(payload)
			rep.Get.Value = c.keep(rep.Get.Value)
		case OpPut:
			rep.Inserted, err = ParsePutResp(payload)
		case OpMGet:
			from := len(c.gets)
			c.gets, err = parseMGetResp(c.gets, payload)
			for i := from; i < len(c.gets); i++ {
				c.gets[i].Value = c.keep(c.gets[i].Value)
			}
			rep.Gets = c.gets[from:len(c.gets):len(c.gets)]
		case OpMPut:
			from := len(c.ins)
			c.ins, err = ParseMPutResp(c.ins, payload)
			rep.Inserts = c.ins[from:len(c.ins):len(c.ins)]
		case OpStats, OpPing:
			rep.Data = cloneBytes(payload)
		case OpReset:
			rep.Purged, err = ParseResetResp(payload)
		}
		// One element per key or pair requested; the other ops carry none.
		if n := len(rep.Gets) + len(rep.Inserts); err == nil && n != sent.n {
			err = wireErrf(ErrPayload, "%v reply has %d elements for %d requested", op, n, sent.n)
		}
		if err != nil {
			return c.replies, c.fail(err)
		}
		c.replies = append(c.replies, rep)
	}
	return c.replies, nil
}

// fail records the first fatal error as the client's sticky error —
// once the reply stream is out of sync with the request stream the
// connection is unusable, and every later call reports the root cause.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

// flushOne runs a single queued request synchronously.
func (c *Client) flushOne() (Reply, error) {
	replies, err := c.Flush()
	if err != nil {
		return Reply{}, err
	}
	return replies[0], nil
}

// Get looks up one key. The value is the client's scratch, valid until
// the next call on the client (see Reply).
func (c *Client) Get(key string) (GetResult, error) {
	if err := c.QueueGet(key); err != nil {
		return GetResult{}, err
	}
	rep, err := c.flushOne()
	return rep.Get, err
}

// Put stores one key, reporting whether it was newly inserted.
func (c *Client) Put(key string, val []byte) (bool, error) {
	if err := c.QueuePut(key, val); err != nil {
		return false, err
	}
	rep, err := c.flushOne()
	return rep.Inserted, err
}

// MGet looks up a batch of keys in one frame; results are in request
// order. The slice and the values in it are the client's scratch, valid
// until the next call on the client (see Reply).
func (c *Client) MGet(keys []string) ([]GetResult, error) {
	if err := c.QueueMGet(keys); err != nil {
		return nil, err
	}
	rep, err := c.flushOne()
	return rep.Gets, err
}

// MPut stores a batch of pairs in one frame; inserted flags are in
// request order, in the client's scratch like MGet's results.
func (c *Client) MPut(kvs []KV) ([]bool, error) {
	if err := c.QueueMPut(kvs); err != nil {
		return nil, err
	}
	rep, err := c.flushOne()
	return rep.Inserts, err
}

// Stats fetches the stats JSON document — byte-identical to rwpserve's
// /stats body for the same cache state.
func (c *Client) Stats() ([]byte, error) {
	if err := c.QueueStats(); err != nil {
		return nil, err
	}
	rep, err := c.flushOne()
	return rep.Data, err
}

// Ping round-trips payload.
func (c *Client) Ping(payload []byte) ([]byte, error) {
	if err := c.QueuePing(payload); err != nil {
		return nil, err
	}
	rep, err := c.flushOne()
	return rep.Data, err
}

// ResetRange purges the remote cache's global sets [lo, hi), returning
// the number of entries dropped: live.Cache.ResetRange over the wire,
// plus the transport error (cluster.NodeConn's ResetRange).
func (c *Client) ResetRange(lo, hi int) (int, error) {
	if err := c.QueueReset(lo, hi); err != nil {
		return 0, err
	}
	rep, err := c.flushOne()
	return rep.Purged, err
}

// needEmptyPipeline gates the chunked transfers: their multi-frame
// exchanges cannot interleave with the one-reply-per-request pipeline.
func (c *Client) needEmptyPipeline(op Op) error {
	if err := c.check(); err != nil {
		return err
	}
	if len(c.pending) != 0 {
		return wireErrf(ErrOp, "%v requires an empty pipeline (%d requests queued)", op, len(c.pending))
	}
	return nil
}

// SnapRange fetches a state snapshot of the remote cache's global sets
// [lo, hi), reassembled from the server's chunked SNAP frames. A
// server-side refusal (bad range, unsupported backend) returns an error
// but leaves the connection usable; only transport failures poison the
// client.
func (c *Client) SnapRange(lo, hi int) ([]byte, error) {
	if err := c.needEmptyPipeline(OpSnap); err != nil {
		return nil, err
	}
	p, err := AppendRangeReq(nil, lo, hi)
	if err != nil {
		return nil, err
	}
	c.w.buf = AppendFrame(c.w.buf, OpSnap, p)
	if err := c.w.flush(); err != nil {
		return nil, c.fail(err)
	}
	var data []byte
	for {
		op, payload, err := c.r.ReadFrame()
		if err != nil {
			return nil, c.fail(err)
		}
		if op == OpErr {
			return nil, c.fail(wireErrf(ErrPayload, "server error: %s", payload))
		}
		if op != OpSnap {
			return nil, c.fail(wireErrf(ErrOp, "reply op %v for SNAP request", op))
		}
		flag, chunk, err := ParseChunk(payload)
		if err != nil {
			return nil, c.fail(err)
		}
		if flag == ChunkErr {
			return nil, fmt.Errorf("proto: snap refused: %s", chunk)
		}
		if len(data)+len(chunk) > MaxSnapshot {
			return nil, c.fail(wireErrf(ErrTooLarge, "snapshot exceeds max %d", MaxSnapshot))
		}
		data = append(data, chunk...)
		if flag == ChunkLast {
			return data, nil
		}
	}
}

// Restore streams a state snapshot to the remote cache in chunked
// RESTORE frames and applies it with catch-up semantics, returning the
// number of previously-resident entries dropped. A refusal (corrupt or
// mismatched snapshot) returns an error with the remote cache untouched
// and the connection usable.
func (c *Client) Restore(data []byte) (int, error) {
	if err := c.needEmptyPipeline(OpRestore); err != nil {
		return 0, err
	}
	if len(data) > MaxSnapshot {
		return 0, wireErrf(ErrTooLarge, "snapshot %d bytes > max %d", len(data), MaxSnapshot)
	}
	err := writeChunks(&c.w, OpRestore, data)
	if err == nil {
		err = c.w.flush() // the last chunk's CRC
	}
	if err != nil {
		return 0, c.fail(err)
	}
	op, payload, err := c.r.ReadFrame()
	if err != nil {
		return 0, c.fail(err)
	}
	if op == OpErr {
		return 0, c.fail(wireErrf(ErrPayload, "server error: %s", payload))
	}
	if op != OpRestore {
		return 0, c.fail(wireErrf(ErrOp, "reply op %v for RESTORE request", op))
	}
	purged, refusal, err := ParseRestoreResp(payload)
	if err != nil {
		return 0, c.fail(err)
	}
	if refusal != "" {
		return 0, fmt.Errorf("proto: restore refused: %s", refusal)
	}
	return purged, nil
}
