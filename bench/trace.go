package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"
)

// Tracing is done from the benchmark's own files, around the calls
// into each layer and inside decorators on the four public seams
// (live.Loader, proto.Backend, the server's io.ReadWriter,
// cluster.NodeConn). Every goroutine that records owns one tracer, so
// recording takes no lock. Aggregates (count, total, time covered by
// children) are kept for every span; the spans themselves are kept
// while the preallocated buffer has room and written out at exit.

type spanName uint8

const (
	spGetHit spanName = iota
	spGetFill
	spPutOverwrite
	spPutInsert
	spLoad
	spRequest
	spQueue
	spFlush
	spVerify
	spCall
	spNodeQueue
	spNodeFlush
	spServerRead
	spServerWrite
	spBackendGet
	spBackendPut
	spSimJob
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spGetHit:       "live.get_hit",
	spGetFill:      "live.get_fill",
	spPutOverwrite: "live.put_overwrite",
	spPutInsert:    "live.put_insert",
	spLoad:         "backend.load",
	spRequest:      "client.request",
	spQueue:        "proto.client_queue",
	spFlush:        "proto.client_flush",
	spVerify:       "client.verify",
	spCall:         "cluster.call",
	spNodeQueue:    "cluster.node_queue",
	spNodeFlush:    "cluster.node_flush",
	spServerRead:   "net.server_read",
	spServerWrite:  "net.server_write",
	spBackendGet:   "proto.server_backend_get",
	spBackendPut:   "proto.server_backend_put",
	spSimJob:       "sim.job",
}

// traceEvery is the sampling step of the per-operation spans: direct
// operations are timed one in traceEvery, and the server's per-key
// backend spans are kept one in traceEvery (their aggregates cover
// every call).
const traceEvery = 16

// spanBufferCap is each tracer's preallocated span capacity.
const spanBufferCap = 1 << 16

// span is one recorded interval. parent indexes the same tracer's
// buffer (-1: none); req is shared by all spans of one request, across
// tracers.
type span struct {
	name       spanName
	parent     int32
	start, end int64 // ns since the trace epoch
	req        int64
}

type openSpan struct {
	name  spanName
	slot  int32 // reserved buffer index, -1 when not recorded
	start int64
	child int64 // time covered by spans that ended inside this one
	req   int64
}

// spanAgg sums every ended span of one name. A layer's self time is
// total minus child.
type spanAgg struct {
	n, total, child int64
}

func (a spanAgg) self() int64 { return a.total - a.child }

type tracer struct {
	actor   string
	now     func() int64
	spans   []span
	open    []openSpan
	agg     [numSpanNames]spanAgg
	seen    [numSpanNames]uint32
	dropped int64
	// from and until bound the measuring phase: spans wholly outside it
	// (the warm pass, the read-outs after the last round) are ignored,
	// and one that straddles an edge is cut there. Another goroutine
	// sets them, hence the atomics.
	from, until atomic.Int64
}

func newTracer(actor string, now func() int64) *tracer {
	t := &tracer{actor: actor, now: now, spans: make([]span, 0, spanBufferCap), open: make([]openSpan, 0, 8)}
	t.from.Store(math.MaxInt64)
	t.until.Store(math.MaxInt64)
	return t
}

// arm starts counting spans from now on; disarm stops it.
func (t *tracer) arm()    { t.from.Store(t.now()) }
func (t *tracer) disarm() { t.until.Store(t.now()) }

// armed reports whether the measuring phase is on.
func (t *tracer) armed() bool {
	return t.from.Load() != math.MaxInt64 && t.until.Load() == math.MaxInt64
}

// sample reports whether this call of name is one of the 1-in-traceEvery
// whose span is kept.
func (t *tracer) sample(name spanName) bool {
	t.seen[name]++
	return t.seen[name]%traceEvery == 1
}

// depth is the number of spans open on this tracer.
func (t *tracer) depth() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// curReq is the request id of the innermost open span, -1 without one.
func (t *tracer) curReq() int64 {
	if t == nil || len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1].req
}

// begin opens a span inside the innermost open one. keep asks for the
// span itself to be recorded, not only aggregated.
func (t *tracer) begin(name spanName, req int64, keep bool) {
	if t == nil {
		return
	}
	slot := int32(-1)
	if keep && t.armed() {
		if len(t.spans) < cap(t.spans) {
			slot = int32(len(t.spans))
			t.spans = append(t.spans, span{})
		} else {
			t.dropped++
		}
	}
	t.open = append(t.open, openSpan{name: name, slot: slot, req: req, start: t.now()})
}

// end closes the innermost span and reports whether it was counted
// (false outside the measuring phase).
func (t *tracer) end() bool {
	if t == nil {
		return false
	}
	return t.endAs(t.open[len(t.open)-1].name)
}

// endAs closes the innermost span under a name decided by the call's
// outcome (hit or fill, overwrite or insert).
func (t *tracer) endAs(name spanName) bool {
	if t == nil {
		return false
	}
	end := t.now()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	from, until := t.from.Load(), t.until.Load()
	if end < from || o.start > until {
		return false
	}
	o.start, end = max(o.start, from), min(end, until)
	d := end - o.start
	a := &t.agg[name]
	a.n++
	a.total += d
	a.child += o.child
	parent := int32(-1)
	if len(t.open) > 0 {
		p := &t.open[len(t.open)-1]
		p.child += d
		parent = p.slot
	}
	if o.slot >= 0 {
		t.spans[o.slot] = span{name: name, parent: parent, start: o.start, end: end, req: o.req}
	}
	return true
}

// traceSet is the tracers of one traced leg: the client goroutine's
// and one per server goroutine, on a shared clock.
type traceSet struct {
	epoch   time.Time
	client  *tracer
	servers []*tracer
}

func newTraceSet(servers int) *traceSet {
	ts := &traceSet{epoch: time.Now()}
	now := func() int64 { return int64(time.Since(ts.epoch)) }
	ts.client = newTracer("client", now)
	for i := 0; i < servers; i++ {
		ts.servers = append(ts.servers, newTracer(fmt.Sprintf("server%d", i), now))
	}
	return ts
}

func (ts *traceSet) all() []*tracer { return append([]*tracer{ts.client}, ts.servers...) }

func (ts *traceSet) arm() {
	for _, t := range ts.all() {
		t.arm()
	}
}

func (ts *traceSet) disarm() {
	for _, t := range ts.all() {
		t.disarm()
	}
}

// sum adds one span name's aggregates over the given tracers.
func sumAgg(ts []*tracer, names ...spanName) spanAgg {
	var out spanAgg
	for _, t := range ts {
		for _, n := range names {
			out.n += t.agg[n].n
			out.total += t.agg[n].total
			out.child += t.agg[n].child
		}
	}
	return out
}

// recorded counts kept and dropped spans over all tracers.
func (ts *traceSet) recorded() (kept, dropped int64) {
	for _, t := range ts.all() {
		kept += int64(len(t.spans))
		dropped += t.dropped
	}
	return kept, dropped
}

// writeFile writes the kept spans as JSON: per actor, one
// [name, start_ns, end_ns, parent, request] row per span. Call it
// only once every recording goroutine has stopped.
func (ts *traceSet) writeFile(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	kept, dropped := ts.recorded()
	fmt.Fprintf(w, "{\"schema\":%q,\"workload\":%q,\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"spans_kept\":%d,\"spans_dropped\":%d,\"actors\":[", traceSchema, workload, kept, dropped)
	for i, t := range ts.all() {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"actor\":%q,\"spans\":[", t.actor)
		for j, s := range t.spans {
			if j > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "\n[%q,%d,%d,%d,%d]", spanNames[s.name], s.start, s.end, s.parent, s.req)
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const traceSchema = "rwp-bench-trace-v1"
