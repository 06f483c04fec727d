package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rwp/internal/runner"
)

// progress is the experiment driver's wall-clock progress reporter.
// It is the only place in the repo (outside tests' harness) that may
// read the host clock: the simulator under internal/ runs purely on
// simulated cycle counters, and the pinned journals and golden results
// fail if a host time reaches one (DESIGN.md §7, D2). Anything new that
// needs wall-clock timing belongs behind a helper like this one, under
// cmd/ — internal/runner observes per-job timing only through its
// injected Clock interface, implemented here.
//
// Progress goes to stderr: stdout carries only the rendered tables, so
// it is byte-identical across -j values, repeated runs, and warm-cache
// resumes (timing lines would break that).
//
// All line rendering lives in pure functions of (inputs, durations) so
// progress_test.go can pin the format with a fixed clock; only the thin
// wrappers below read time.Now.

// headerLine announces an experiment.
func headerLine(id, title string) string {
	return fmt.Sprintf("--- %s: %s ---", id, title)
}

// doneLine reports an experiment's wall-clock duration, rounded for
// humans (results never include wall time; it is presentation only).
func doneLine(id string, elapsed time.Duration) string {
	return fmt.Sprintf("(%s in %v)", id, elapsed.Round(time.Millisecond))
}

// etaLine estimates the time remaining after done of total experiments
// finished in elapsed, assuming uniform per-experiment cost. It returns
// "" when no estimate is possible (nothing finished yet) or useful
// (nothing left).
func etaLine(done, total int, elapsed time.Duration) string {
	if done <= 0 || done >= total {
		return ""
	}
	per := elapsed / time.Duration(done)
	rem := per * time.Duration(total-done)
	return fmt.Sprintf("(%d/%d experiments, ~%v remaining)", done, total, rem.Round(time.Second))
}

// engineLine renders the end-of-run engine summary. The "executed=N "
// token is load-bearing: TestRunSingleExperiment greps it to verify
// warm-cache runs execute nothing.
func engineLine(workers int, st runner.Stats) string {
	return fmt.Sprintf("rwpexp: engine: workers=%d submitted=%d coalesced=%d executed=%d done=%d disk-hits=%d disk-puts=%d disk-errors=%d max-queue=%d exec-time=%v",
		workers, st.Submitted, st.Coalesced, st.Executed, st.Done,
		st.DiskHits, st.DiskPuts, st.DiskErrors, st.MaxQueue,
		st.ExecTime.Round(time.Millisecond))
}

// jobStartLine renders one -v job-start line.
func jobStartLine(k runner.Key) string {
	return "  run   " + k.String()
}

// jobDoneLine renders one -v job-completion line.
func jobDoneLine(k runner.Key, d time.Duration, fromCache bool) string {
	src := "computed"
	if fromCache {
		src = "cache hit"
	}
	return fmt.Sprintf("  done  %s (%s, %v)", k, src, d.Round(time.Millisecond))
}

// progress tracks one experiment's stopwatch. The clock is injected so
// tests can drive it deterministically.
type progress struct {
	w     io.Writer
	now   func() time.Time
	start time.Time
}

// startProgress announces an experiment and starts its stopwatch on the
// host clock.
func startProgress(w io.Writer, id, title string) *progress {
	return startProgressAt(w, id, title, time.Now)
}

// startProgressAt is startProgress with an injected clock.
func startProgressAt(w io.Writer, id, title string, now func() time.Time) *progress {
	fmt.Fprintln(w, headerLine(id, title))
	return &progress{w: w, now: now, start: now()}
}

// done reports the experiment's duration.
func (p *progress) done(id string) {
	fmt.Fprintln(p.w, doneLine(id, p.now().Sub(p.start)))
}

// wallClock implements runner.Clock with the host clock. Job timing is
// observability only — results never depend on it.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// jobObserver prints per-job progress lines (enabled by -v). The
// engine calls it from worker goroutines, so writes are serialized.
type jobObserver struct {
	mu      sync.Mutex
	w       io.Writer
	verbose bool
}

func (o *jobObserver) JobStart(k runner.Key) {
	if !o.verbose {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	// Writing under o.mu is the point: the mutex exists only to keep
	// concurrent workers' progress lines from interleaving on stderr.
	fmt.Fprintln(o.w, jobStartLine(k))
}

func (o *jobObserver) JobDone(k runner.Key, d time.Duration, fromCache bool) {
	if !o.verbose {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	// See JobStart: the mutex exists to serialize this stream write.
	fmt.Fprintln(o.w, jobDoneLine(k, d, fromCache))
}
