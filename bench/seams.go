package main

import (
	"io"
	"sync"
	"sync/atomic"

	"rwp/internal/live"
	"rwp/internal/live/proto"
)

// Decorators on the four seams the code under test already exposes.
// An untraced run uses only the counting Loader; a traced run wraps
// all four.

// loaderSeam is the benchmark's backing store: loadgen's deterministic
// Loader, counted. Its call count is the backend_loads_per_kop metric
// and must equal the cache's own Loads+LoadRaces+LoadAbsents.
type loaderSeam struct {
	inner live.Loader
	calls atomic.Int64
	tr    *tracer // the tracer of the goroutine that runs Get; nil untraced
}

func (l *loaderSeam) load(key string) []byte {
	l.calls.Add(1)
	if l.tr == nil {
		return l.inner(key)
	}
	// Keep the span when the Get around it is kept, else one in
	// traceEvery; the aggregate covers every call either way.
	l.tr.begin(spLoad, l.tr.curReq(), l.tr.depth() > 0 || l.tr.sample(spLoad))
	v := l.inner(key)
	l.tr.end()
	return v
}

// reqFIFO carries request ids from the client to one server
// goroutine. The protocol is strictly in order on a connection, so the
// k-th frame the client queues is the k-th the server serves: the
// client pushes (request, keys in frame) as it queues, the server's
// backend decorator pops as it starts on a frame.
type reqFIFO struct {
	mu sync.Mutex
	q  []reqEntry
}

type reqEntry struct {
	req  int64
	keys int
}

func (f *reqFIFO) push(req int64, keys int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.q = append(f.q, reqEntry{req, keys})
	f.mu.Unlock()
}

func (f *reqFIFO) pop() (reqEntry, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.q) == 0 {
		return reqEntry{}, false
	}
	e := f.q[0]
	f.q = f.q[1:]
	return e, true
}

// backendSeam times the server's calls into the cache, one in
// traceEvery: timing every call would cost the server a tenth of its
// per-key work. calls counts them all.
type backendSeam struct {
	inner proto.Backend
	tr    *tracer
	fifo  *reqFIFO
	req   int64 // request being served
	left  int   // keys of it still to come
	calls int64
}

func (b *backendSeam) next() {
	if b.left == 0 {
		e, ok := b.fifo.pop()
		if !ok {
			b.req = -1
			return
		}
		b.req, b.left = e.req, e.keys
	}
	b.left--
	if b.tr.armed() {
		b.calls++
	}
}

func (b *backendSeam) Get(key string) ([]byte, bool) {
	b.next()
	if !b.tr.sample(spBackendGet) {
		return b.inner.Get(key)
	}
	b.tr.begin(spBackendGet, b.req, true)
	v, hit := b.inner.Get(key)
	b.tr.end()
	return v, hit
}

func (b *backendSeam) Put(key string, val []byte) bool {
	b.next()
	if !b.tr.sample(spBackendPut) {
		return b.inner.Put(key, val)
	}
	b.tr.begin(spBackendPut, b.req, true)
	ins := b.inner.Put(key, val)
	b.tr.end()
	return ins
}

func (b *backendSeam) StatsJSON() ([]byte, error) { return b.inner.StatsJSON() }

// connSeam times and counts the server's socket reads and writes. A
// read span is mostly waiting for the client; a write span is the
// flush of one burst's replies.
type connSeam struct {
	inner   io.ReadWriter
	tr      *tracer
	backend *backendSeam

	bytesIn, bytesOut, writes int64
}

func (c *connSeam) Read(p []byte) (int, error) {
	c.tr.begin(spServerRead, -1, true)
	n, err := c.inner.Read(p)
	if c.tr.end() {
		c.bytesIn += int64(n)
	}
	return n, err
}

func (c *connSeam) Write(p []byte) (int, error) {
	c.tr.begin(spServerWrite, c.backend.req, true)
	n, err := c.inner.Write(p)
	if c.tr.end() {
		c.bytesOut += int64(n)
		c.writes++
	}
	return n, err
}

// nodeSeam times the router's calls into one node's connection.
type nodeSeam struct {
	*proto.Client
	tr   *tracer
	fifo *reqFIFO
}

func (n *nodeSeam) QueueMGet(keys []string) error {
	n.fifo.push(n.tr.curReq(), len(keys))
	n.tr.begin(spNodeQueue, n.tr.curReq(), true)
	err := n.Client.QueueMGet(keys)
	n.tr.end()
	return err
}

func (n *nodeSeam) QueueMPut(kvs []proto.KV) error {
	n.fifo.push(n.tr.curReq(), len(kvs))
	n.tr.begin(spNodeQueue, n.tr.curReq(), true)
	err := n.Client.QueueMPut(kvs)
	n.tr.end()
	return err
}

func (n *nodeSeam) Flush() ([]proto.Reply, error) {
	n.tr.begin(spNodeFlush, n.tr.curReq(), true)
	r, err := n.Client.Flush()
	n.tr.end()
	return r, err
}
