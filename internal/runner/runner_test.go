package runner

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rwp/internal/sim"
)

func TestKeyStableAndDiscriminating(t *testing.T) {
	type payload struct {
		Bench string
		N     int
	}
	a1, err := NewKey("k", "a", payload{"gcc", 1})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewKey("k", "different desc", payload{"gcc", 1})
	if err != nil {
		t.Fatal(err)
	}
	if a1.ID() != a2.ID() {
		t.Error("key hash must depend only on kind+payload, not desc")
	}
	b, err := NewKey("k", "a", payload{"gcc", 2})
	if err != nil {
		t.Fatal(err)
	}
	if a1.ID() == b.ID() {
		t.Error("different payloads must hash differently")
	}
	c, err := NewKey("other", "a", payload{"gcc", 1})
	if err != nil {
		t.Fatal(err)
	}
	if a1.ID() == c.ID() {
		t.Error("different kinds must hash differently")
	}
	if _, err := NewKey("", "", payload{}); err == nil {
		t.Error("empty kind must be rejected")
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	e, err := New(Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	key, err := NewKey("count", "", struct{ X int }{1})
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	job := func() (int, error) {
		executions.Add(1)
		return 42, nil
	}
	const submitters = 32
	futs := make([]*Future[int], submitters)
	// The first duplicate arrives while the job runs and must return at
	// once, leaving the engine lock free. A coalesced Submit that waited
	// for the job, or kept the lock, fails here at a line, and not as the
	// submitters below hanging until the test binary times out.
	started, release := make(chan struct{}), make(chan struct{})
	futs[0] = Submit(e, key, func() (int, error) {
		close(started)
		<-release
		return job()
	})
	<-started
	submitted := make(chan struct{})
	go func() {
		futs[1] = Submit(e, key, job)
		close(submitted)
	}()
	for waiting := true; waiting; {
		select {
		case <-submitted:
			waiting = false
		default:
			if parkedIn("rwp/internal/runner.Submit[") {
				t.Fatal("a duplicate Submit waits for the job it coalesces onto")
			}
			runtime.Gosched()
		}
	}
	assertUnlocked(t, e)
	close(release)
	var wg sync.WaitGroup
	for i := 2; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			futs[i] = Submit(e, key, job)
		}(i)
	}
	wg.Wait()
	for i, f := range futs {
		v, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if v != 42 {
			t.Fatalf("future %d: got %d", i, v)
		}
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("job executed %d times, want 1", n)
	}
	st := e.Stats()
	if st.Submitted != submitters || st.Executed != 1 || st.Coalesced != submitters-1 {
		t.Fatalf("stats %+v: want submitted=%d executed=1 coalesced=%d", st, submitters, submitters-1)
	}
}

// lockedObserver records, for each event, whether the engine's lock
// was free when the event arrived.
type lockedObserver struct {
	e      *Engine
	events []bool
}

func (o *lockedObserver) JobStart(Key)                     { o.record() }
func (o *lockedObserver) JobDone(Key, time.Duration, bool) { o.record() }

func (o *lockedObserver) record() {
	free := o.e.mu.TryLock()
	if free {
		o.e.mu.Unlock()
	}
	o.events = append(o.events, free)
}

// TestObserverCalledUnlocked: the engine calls its Observer without its
// own lock. rwpexp's -v observer writes a line to stderr per event, and
// under the engine's lock that write would stall every Submit behind
// it. One job on one worker: nothing else takes the lock meanwhile.
func TestObserverCalledUnlocked(t *testing.T) {
	obs := &lockedObserver{}
	e, err := New(Config{Workers: 1, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	obs.e = e
	key, err := NewKey("observed", "", struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Submit(e, key, func() (int, error) { return 1, nil }).Wait(); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true}; !reflect.DeepEqual(obs.events, want) {
		t.Fatalf("engine lock free at JobStart, JobDone = %v, want %v", obs.events, want)
	}
}

// assertUnlocked fails the test at its caller's line if the engine's
// lock is held.
func assertUnlocked(t *testing.T, e *Engine) {
	t.Helper()
	if !e.mu.TryLock() {
		t.Fatal("the engine's lock is held")
	}
	e.mu.Unlock()
}

// parkedIn reports whether some goroutine is parked on a channel
// receive in the function whose traceback line starts with fn. It reads
// no clock: it polls the goroutines' states.
func parkedIn(fn string) bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		header, frames, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[chan receive") && strings.HasPrefix(frames, fn) {
			return true
		}
	}
	return false
}

func TestErrorPropagates(t *testing.T) {
	e := NewDefault()
	key, err := NewKey("fail", "", struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	f := Submit(e, key, func() (int, error) { return 0, boom })
	if _, err := f.Wait(); err == nil {
		t.Fatal("error not propagated")
	}
	// A duplicate submission shares the failed entry; the engine does
	// not retry (the job is a pure function — it would fail again).
	f2 := Submit(e, key, func() (int, error) { return 7, nil })
	if _, err := f2.Wait(); err == nil {
		t.Fatal("coalesced duplicate must see the original error")
	}
	if st := e.Stats(); st.Executed != 1 {
		t.Fatalf("executed %d, want 1", st.Executed)
	}
}

func TestResultTypeMismatch(t *testing.T) {
	e := NewDefault()
	key, err := NewKey("mix", "", struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	f1 := Submit(e, key, func() (int, error) { return 1, nil })
	if _, err := f1.Wait(); err != nil {
		t.Fatal(err)
	}
	// Same key, different result type: a kind-contract violation that
	// must surface as an error, not a panic.
	f2 := Submit(e, key, func() (string, error) { return "x", nil })
	if _, err := f2.Wait(); err == nil {
		t.Fatal("type mismatch must error")
	}
}

// fastOptions returns a short single-core configuration.
func fastOptions(policy string) sim.Options {
	opt := sim.DefaultOptions()
	opt.Hier.LLCPolicy = policy
	opt.Warmup = 30_000
	opt.Measure = 80_000
	return opt
}

// engineRuns is the representative job set for the parallel
// bit-identity check: a policy spread plus a duplicate baseline (which
// must coalesce) and one multiprogrammed run.
func engineRuns(t *testing.T, e *Engine) ([]sim.Result, sim.MultiResult) {
	t.Helper()
	singles := []struct{ bench, policy string }{
		{"gcc", "lru"},
		{"astar", "rwp"},
		{"mcf", "dip"},
		{"gcc", "lru"}, // duplicate: coalesces onto the first job
	}
	futs := make([]*Future[sim.Result], len(singles))
	for i, s := range singles {
		futs[i] = e.Single(s.bench, fastOptions(s.policy))
	}
	mopt := fastOptions("rwp")
	mopt.Hier.Cores = 2
	mfut := e.Multi([]string{"sphinx3", "gobmk"}, mopt)
	out := make([]sim.Result, len(futs))
	for i, f := range futs {
		r, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	mr, err := mfut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return out, mr
}

// TestParallelBitIdentity is the engine-level counterpart of
// internal/sim's bit-identity tests: the same job set must produce
// bit-identical Results — every counter, not just headline metrics —
// at any worker count.
func TestParallelBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	type outcome struct {
		singles []sim.Result
		multi   sim.MultiResult
	}
	var base outcome
	for i, workers := range []int{1, 4, 8} {
		e, err := New(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		singles, multi := engineRuns(t, e)
		if st := e.Stats(); st.Executed != 4 || st.Coalesced != 1 {
			t.Fatalf("-j %d: stats %+v, want executed=4 coalesced=1", workers, st)
		}
		got := outcome{singles, multi}
		if i == 0 {
			base = got
			continue
		}
		if !reflect.DeepEqual(got.singles, base.singles) {
			t.Errorf("-j %d: single-core results differ from -j 1", workers)
		}
		if !reflect.DeepEqual(got.multi, base.multi) {
			t.Errorf("-j %d: multi-core result differs from -j 1", workers)
		}
	}
}
