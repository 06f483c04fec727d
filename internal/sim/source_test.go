package sim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rwp/internal/mem"
	"rwp/internal/probe"
	"rwp/internal/stats"
	"rwp/internal/trace"
	"rwp/internal/workload"
)

// TestRunSourceMatchesRunSingle: the entry points that share the
// loop's one-core case are one simulation. The generator's own stream
// through each of them must produce the same Result field for field,
// and the probe's IntervalEnd stream must be the Interval series (the
// series is the probe's cumulative counts, differenced).
//
// The Warmup == 0 leg is also the regression test for the two
// source-driven entry points, which used to refuse every such run with
// "shorter than warmup" although Options.Validate allows it.
func TestRunSourceMatchesRunSingle(t *testing.T) {
	prof, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const window = 50_000
	for _, warmup := range []uint64{100_000, 0} {
		opt := fastOptions("rwp")
		opt.Warmup = warmup
		direct, err := RunSingle(prof, opt)
		if err != nil {
			t.Fatal(err)
		}
		rec := probe.NewRecorder(window)
		probed, err := RunSingleProbe(prof, opt, rec)
		if err != nil {
			t.Fatal(err)
		}
		viaSource, err := RunSource("gcc", prof.NewSource(), opt)
		if err != nil {
			t.Fatal(err)
		}
		withIv, series, err := RunSourceIntervals("gcc", prof.NewSource(), opt, window)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]Result{"RunSingleProbe": probed, "RunSource": viaSource, "RunSourceIntervals": withIv} {
			if !reflect.DeepEqual(got, direct) {
				t.Errorf("warmup %d: %s diverged from RunSingle:\n got %+v\nwant %+v", warmup, name, got, direct)
			}
		}
		if len(series) != int(opt.Measure/window) || len(rec.Intervals) != len(series) {
			t.Fatalf("warmup %d: %d intervals, %d probe events, want %d of each", warmup, len(series), len(rec.Intervals), opt.Measure/window)
		}
		var prev probe.IntervalEvent
		for i, ev := range rec.Intervals {
			insts, cycles := ev.Instructions-prev.Instructions, ev.Cycles-prev.Cycles
			want := Interval{
				EndAccess:   ev.EndAccess,
				IPC:         float64(insts) / float64(cycles),
				ReadMPKI:    stats.PerKilo(ev.LLCReadMisses-prev.LLCReadMisses, insts),
				DirtyTarget: ev.DirtyTarget,
			}
			if series[i] != want {
				t.Errorf("warmup %d: interval %d is %+v, probe event gives %+v", warmup, i, series[i], want)
			}
			prev = ev
		}
	}
}

// TestTraceEndingAtWarmupBoundaryFails: a trace with no access past the
// warmup has nothing to measure. It used to return err == nil with
// Instructions == 1, the drain in core.Finish.
func TestTraceEndingAtWarmupBoundaryFails(t *testing.T) {
	prof, _ := workload.Get("gcc")
	for _, warmup := range []uint64{100_000, 0} {
		opt := fastOptions("lru")
		opt.Warmup = warmup
		_, err := RunSource("edge", trace.NewLimit(prof.NewSource(), warmup), opt)
		if err == nil || !strings.Contains(err.Error(), "ended with no measured accesses") {
			t.Errorf("warmup %d: RunSource: %v", warmup, err)
		}
		_, _, err = RunSourceIntervals("edge", trace.NewLimit(prof.NewSource(), warmup), opt, 1_000)
		if err == nil || !strings.Contains(err.Error(), "ended with no measured accesses") {
			t.Errorf("warmup %d: RunSourceIntervals: %v", warmup, err)
		}
	}
	// One measured access is a (short) measured region.
	opt := fastOptions("lru")
	if _, err := RunSource("edge+1", trace.NewLimit(prof.NewSource(), opt.Warmup+1), opt); err != nil {
		t.Errorf("one measured access refused: %v", err)
	}
}

// failingSource fails with err in place of access failAt.
type failingSource struct {
	src    trace.Source
	next   uint64
	failAt uint64
	err    error
}

func (f *failingSource) Next() (mem.Access, error) {
	if f.next == f.failAt {
		return mem.Access{}, f.err
	}
	f.next++
	return f.src.Next()
}

// TestRunSourceWrapsSourceError: a malformed record fails the run with
// the message the unbuffered loop gave, wrapping the source's error, and
// the source is not read past it.
func TestRunSourceWrapsSourceError(t *testing.T) {
	prof, _ := workload.Get("gcc")
	boom := errors.New("trace: reading addr: unexpected EOF")
	opt := fastOptions("lru")
	for _, failAt := range []uint64{0, 1, opt.Warmup - 1, opt.Warmup, opt.Warmup + 4095, opt.Warmup + 4096} {
		src := &failingSource{src: prof.NewSource(), failAt: failAt, err: boom}
		_, err := RunSource("bad", src, opt)
		if !errors.Is(err, boom) || err.Error() != "sim: trace bad: "+boom.Error() {
			t.Errorf("failAt %d: error %v", failAt, err)
		}
		if src.next != failAt {
			t.Errorf("failAt %d: source advanced to %d", failAt, src.next)
		}
	}
}

// panickyProbe panics at its first interval.
type panickyProbe struct{ *probe.Recorder }

func (panickyProbe) IntervalEnd(probe.IntervalEvent) { panic("probe: boom") }

// TestRunsLeaveNoGoroutines: every way out of a run — normal return,
// refused options, a source error under the consumer's feet, a panic in
// a probe — joins the read-ahead stage first.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	prof, _ := workload.Get("gcc")
	opt := fastOptions("lru")
	opt.Warmup, opt.Measure = 3_000, 9_000
	twoCore := opt
	twoCore.Hier.Cores = 2
	boom := errors.New("boom")
	base := runtime.NumGoroutine()
	for run := 0; run < 200; run++ {
		if _, err := RunSource("ok", prof.NewSource(), opt); err != nil {
			t.Fatal(err)
		}
		if _, err := RunSource("x", prof.NewSource(), twoCore); err == nil {
			t.Fatal("RunSource accepted a 2-core config")
		}
		src := &failingSource{src: prof.NewSource(), failAt: opt.Warmup + 5, err: boom}
		if _, err := RunSource("bad", src, opt); !errors.Is(err, boom) {
			t.Fatalf("source error lost: %v", err)
		}
		if _, err := RunSource("short", trace.NewLimit(prof.NewSource(), 10), opt); err == nil {
			t.Fatal("short trace accepted")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("probe panic swallowed")
				}
			}()
			_, _ = RunSingleProbe(prof, opt, panickyProbe{probe.NewRecorder(1_000)})
		}()
		if run%20 == 0 {
			if _, err := RunMulti([]workload.Profile{prof, prof}, twoCore); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Close returns when the producer has signalled, a few instructions
	// before it leaves the count, hence the bounded yielding.
	for spins := 0; runtime.NumGoroutine() > base; spins++ {
		if spins == 1_000_000 {
			t.Fatalf("%d goroutines after 200 runs, baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestRunSourceShortTraceFails(t *testing.T) {
	prof, _ := workload.Get("gcc")
	opt := fastOptions("lru")
	short := trace.NewLimit(prof.NewSource(), opt.Warmup/2)
	if _, err := RunSource("short", short, opt); err == nil {
		t.Fatal("trace shorter than warmup accepted")
	}
}

// TestRunSourceTruncatedMeasureIsOK: a stream that ends k accesses into
// the measured region is a shorter run, not a failure — its Result is
// exactly RunSingle's with Measure = k. It is the one test that holds
// a source that ends to the quota that ends the read-ahead stage.
func TestRunSourceTruncatedMeasureIsOK(t *testing.T) {
	prof, _ := workload.Get("gcc")
	for _, pol := range []string{"lru", "rwp", "rrp"} {
		for _, warmup := range []uint64{0, 100_000} {
			opt := fastOptions(pol)
			opt.Warmup = warmup
			k := opt.Measure/2 + 7
			got, err := RunSource(prof.Name, trace.NewLimit(prof.NewSource(), warmup+k), opt)
			if err != nil {
				t.Fatalf("%s/warmup %d: %v", pol, warmup, err)
			}
			opt.Measure = k
			want, err := RunSingle(prof, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/warmup %d: stream cut at Warmup+%d\n got %+v\nwant %+v", pol, warmup, k, got, want)
			}
		}
	}
}

func TestRunSourceRejectsMulticoreConfig(t *testing.T) {
	prof, _ := workload.Get("gcc")
	opt := fastOptions("lru")
	opt.Hier.Cores = 2
	if _, err := RunSource("x", prof.NewSource(), opt); err == nil {
		t.Fatal("multicore hierarchy accepted")
	}
}
