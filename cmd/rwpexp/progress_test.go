package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rwp/internal/runner"
)

// fixedClock is a hand-advanced clock for deterministic progress tests.
type fixedClock struct{ t time.Time }

func (c *fixedClock) now() time.Time          { return c.t }
func (c *fixedClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestProgressLinesWithFixedClock(t *testing.T) {
	var buf bytes.Buffer
	clk := &fixedClock{t: time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)}
	p := startProgressAt(&buf, "E3", "Speedup over LRU", clk.now)
	clk.advance(1500 * time.Millisecond)
	p.done("E3")
	got := buf.String()
	want := "--- E3: Speedup over LRU ---\n(E3 in 1.5s)\n"
	if got != want {
		t.Fatalf("progress output:\n got %q\nwant %q", got, want)
	}
}

func TestEtaLine(t *testing.T) {
	if got := etaLine(0, 5, 0); got != "" {
		t.Errorf("eta before anything finished = %q, want empty", got)
	}
	if got := etaLine(5, 5, time.Minute); got != "" {
		t.Errorf("eta with nothing left = %q, want empty", got)
	}
	got := etaLine(2, 6, 1*time.Minute)
	want := "(2/6 experiments, ~2m0s remaining)"
	if got != want {
		t.Errorf("eta = %q, want %q", got, want)
	}
}

func TestEngineLineFormat(t *testing.T) {
	st := runner.Stats{
		Submitted: 10, Coalesced: 3, Executed: 5, Done: 7,
		DiskHits: 2, DiskPuts: 5, DiskErrors: 0,
		ExecTime: 2300 * time.Millisecond, MaxQueue: 4,
	}
	got := engineLine(8, st)
	want := "rwpexp: engine: workers=8 submitted=10 coalesced=3 executed=5 done=7 disk-hits=2 disk-puts=5 disk-errors=0 max-queue=4 exec-time=2.3s"
	if got != want {
		t.Fatalf("engine line:\n got %q\nwant %q", got, want)
	}
	// The "executed=N " token (trailing space included) is what
	// TestRunSingleExperiment looks for in a warm-cache run's stderr.
	if !strings.Contains(engineLine(1, runner.Stats{}), " executed=0 ") {
		t.Fatal("engine line lost the ' executed=N ' token TestRunSingleExperiment relies on")
	}
}

func TestJobLines(t *testing.T) {
	k, err := runner.NewKey("single", "mcf/rwp", struct{ X int }{1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jobStartLine(k), "  run   single mcf/rwp"; got != want {
		t.Errorf("start line %q, want %q", got, want)
	}
	if got, want := jobDoneLine(k, 1234*time.Millisecond, false), "  done  single mcf/rwp (computed, 1.234s)"; got != want {
		t.Errorf("done line %q, want %q", got, want)
	}
	if got, want := jobDoneLine(k, 10*time.Millisecond, true), "  done  single mcf/rwp (cache hit, 10ms)"; got != want {
		t.Errorf("cache-hit line %q, want %q", got, want)
	}

	// The -v observer prints the same lines, and each call releases the
	// lock that orders the engine's workers' lines.
	var buf bytes.Buffer
	o := &jobObserver{w: &buf, verbose: true}
	for _, call := range []func(){
		func() { o.JobStart(k) },
		func() { o.JobDone(k, 1234*time.Millisecond, false) },
		func() { o.JobDone(k, 10*time.Millisecond, true) },
	} {
		call()
		if !o.mu.TryLock() {
			t.Fatal("the observer's lock is held after a call")
		}
		o.mu.Unlock()
	}
	want := jobStartLine(k) + "\n" + jobDoneLine(k, 1234*time.Millisecond, false) + "\n" + jobDoneLine(k, 10*time.Millisecond, true) + "\n"
	if buf.String() != want {
		t.Errorf("observer printed %q, want %q", buf.String(), want)
	}
}
