package main

import "testing"

// fakeClock advances only when the test says so.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	clk := &fakeClock{}
	tr := newTracer("client", clk.now)
	tr.arm()

	tr.begin(spCall, 7, true) // 0..100
	clk.t = 10
	tr.begin(spNodeQueue, tr.curReq(), true) // 10..30
	clk.t = 30
	tr.end()
	clk.t = 40
	tr.begin(spNodeFlush, tr.curReq(), true) // 40..90, with a grandchild 50..60
	clk.t = 50
	tr.begin(spLoad, tr.curReq(), true)
	clk.t = 60
	tr.end()
	clk.t = 90
	tr.end()
	clk.t = 100
	tr.end()

	call := tr.agg[spCall]
	if call.n != 1 || call.total != 100 || call.self() != 30 {
		t.Errorf("call: n=%d total=%d self=%d, want 1, 100, 30", call.n, call.total, call.self())
	}
	if f := tr.agg[spNodeFlush]; f.total != 50 || f.self() != 40 {
		t.Errorf("flush: total=%d self=%d, want 50, 40", f.total, f.self())
	}
	if got := len(tr.spans); got != 4 {
		t.Fatalf("kept %d spans, want 4", got)
	}
	// Slots are reserved at begin: the call is 0, its children 1 and 2,
	// the grandchild 3.
	for i, want := range []span{
		{name: spCall, parent: -1, start: 0, end: 100, req: 7},
		{name: spNodeQueue, parent: 0, start: 10, end: 30, req: 7},
		{name: spNodeFlush, parent: 0, start: 40, end: 90, req: 7},
		{name: spLoad, parent: 2, start: 50, end: 60, req: 7},
	} {
		if tr.spans[i] != want {
			t.Errorf("span %d = %+v, want %+v", i, tr.spans[i], want)
		}
	}
}

func TestWarmPassSpansAreIgnoredAndStraddlersCut(t *testing.T) {
	clk := &fakeClock{}
	tr := newTracer("server0", clk.now)
	tr.begin(spBackendGet, 1, true)
	clk.t = 10
	if tr.end() {
		t.Error("a span that ended before arming was counted")
	}
	tr.begin(spServerRead, -1, true) // opens at 10, before arming
	clk.t = 50
	tr.arm()
	clk.t = 80
	if !tr.end() {
		t.Error("a span that ended after arming was not counted")
	}
	if a := tr.agg[spServerRead]; a.n != 1 || a.total != 30 {
		t.Errorf("straddling span: n=%d total=%d, want 1 and 30 (cut to start at arming)", a.n, a.total)
	}
	if tr.agg[spBackendGet].n != 0 || len(tr.spans) != 0 {
		t.Errorf("warm-pass work leaked into the trace: %+v, %d spans", tr.agg[spBackendGet], len(tr.spans))
	}
}

func TestSpansAfterDisarmAreCutOrIgnored(t *testing.T) {
	clk := &fakeClock{}
	tr := newTracer("server0", clk.now)
	tr.arm()
	tr.begin(spServerRead, -1, true) // 0..100, the phase ends at 40
	clk.t = 40
	tr.disarm()
	clk.t = 100
	if !tr.end() {
		t.Error("a span straddling the end of the phase was not counted")
	}
	tr.begin(spServerWrite, -1, true)
	clk.t = 110
	if tr.end() {
		t.Error("a span after the phase was counted")
	}
	if a := tr.agg[spServerRead]; a.total != 40 || len(tr.spans) != 1 || tr.spans[0].end != 40 {
		t.Errorf("straddling span: total %d, spans %+v, want it cut at 40", a.total, tr.spans)
	}
}

func TestEndAsRenamesByOutcome(t *testing.T) {
	clk := &fakeClock{}
	tr := newTracer("client", clk.now)
	tr.arm()
	tr.begin(spGetHit, 0, false)
	clk.t = 5
	tr.endAs(spGetFill)
	if tr.agg[spGetHit].n != 0 || tr.agg[spGetFill].n != 1 || tr.agg[spGetFill].total != 5 {
		t.Errorf("endAs: hit %+v fill %+v", tr.agg[spGetHit], tr.agg[spGetFill])
	}
	if len(tr.spans) != 0 {
		t.Errorf("an unkept span was recorded")
	}
}

func TestFullBufferDropsSpansButKeepsAggregates(t *testing.T) {
	clk := &fakeClock{}
	tr := newTracer("client", clk.now)
	tr.spans = make([]span, 0, 2)
	tr.arm()
	for i := 0; i < 5; i++ {
		tr.begin(spRequest, int64(i), true)
		clk.t++
		tr.end()
	}
	if len(tr.spans) != 2 || tr.dropped != 3 || tr.agg[spRequest].n != 5 {
		t.Errorf("kept %d dropped %d aggregated %d, want 2, 3, 5", len(tr.spans), tr.dropped, tr.agg[spRequest].n)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	tr.begin(spCall, 1, true)
	if tr.end() || tr.endAs(spCall) || tr.depth() != 0 || tr.curReq() != -1 {
		t.Error("a nil tracer recorded something")
	}
}
