package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
)

// statsSeq serves a fixed sequence of stats documents, one per
// request, repeating the last — a deterministic stand-in for polling a
// live server whose counters advance between polls.
type statsSeq struct {
	docs [][]byte
	i    int
}

func (s *statsSeq) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	doc := s.docs[s.i]
	if s.i < len(s.docs)-1 {
		s.i++
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// snapshots drives a real cache and captures its stats document before
// and after a burst, so the poller sees genuine cumulative payloads.
func snapshots(t *testing.T) (before, after []byte) {
	t.Helper()
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = 128, 4, 4
	cfg.RWP.Interval = 32
	cfg.Coalesce = true
	cfg.NegOps = 64
	cfg.Loader = loadgen.AbsentLoader(8)
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadgen.New("mcf", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.ApplyAll(c, loadgen.Take(g, 2000))
	before, err = c.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	loadgen.ApplyAll(c, loadgen.Take(g, 3000))
	// Eight gets of one absent key inside the burst: the first records a
	// verdict (NegInserts), the next seven are NegHits — the poller's
	// coal/neg cell for this interval reads exactly 0/7.
	for i := 0; i < 8; i++ {
		c.Get(loadgen.AbsentKey(0))
	}
	after, err = c.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return before, after
}

// TestLivePollerDeltas: the poller baselines on the first poll and
// prints genuine interval deltas (ops, retarget split, interval p99)
// on the second.
func TestLivePollerDeltas(t *testing.T) {
	before, after := snapshots(t)
	srv := httptest.NewServer(&statsSeq{docs: [][]byte{before, after}})
	defer srv.Close()

	var out bytes.Buffer
	if err := runLive(&out, srv.URL, time.Millisecond, 2, srv.Client()); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"rd-hit", "retargets(+/-/=)", "p99-cost", "p99-c/d", "coal/neg", "baseline"} {
		if !strings.Contains(got, want) {
			t.Errorf("poller output missing %q:\n%s", want, got)
		}
	}
	// The second poll's delta line must show the burst's ops and a
	// well-formed retarget split.
	lines := strings.Split(strings.TrimSpace(got), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "+") || !strings.Contains(last, "/=") {
		t.Errorf("delta line lacks the retarget split: %q", last)
	}
	// The interval clean/dirty p99 split: the mcf burst has both clean
	// and dirty hits, so the cell is number/number (the retarget split
	// never matches this shape — its slashes precede signs).
	if !regexp.MustCompile(`\d+/\d+`).MatchString(last) {
		t.Errorf("delta line lacks the clean/dirty p99 split: %q", last)
	}
	// The stampede-defense cell: single-goroutine traffic never
	// coalesces, and the absent-key octet in the burst scores exactly
	// seven negative-cache hits.
	if !strings.Contains(last, " 0/7 ") {
		t.Errorf("delta line lacks the 0/7 coal/neg cell: %q", last)
	}
	if strings.Contains(last, "baseline") {
		t.Errorf("second poll still printing baseline: %q", last)
	}
}

// TestLivePollerRebaseline: counters running backwards (server restart
// between polls) re-baseline instead of underflowing.
func TestLivePollerRebaseline(t *testing.T) {
	before, after := snapshots(t)
	srv := httptest.NewServer(&statsSeq{docs: [][]byte{after, before, after}})
	defer srv.Close()

	var out bytes.Buffer
	if err := runLive(&out, srv.URL, time.Millisecond, 3, srv.Client()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "re-baselining") {
		t.Errorf("backwards counters not detected:\n%s", out.String())
	}
}

// TestLiveFlagSurface: -live rejects journal arguments and a cadence
// or poll count it cannot pace, and surfaces connection failures.
func TestLiveFlagSurface(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-live", "127.0.0.1:1", "-dir", t.TempDir()}, &out, &errb); code != 2 {
		t.Errorf("-live with -dir: exit %d, want 2", code)
	}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-every", []string{"-every", "0s"}},
		{"-every", []string{"-every", "-1s"}},
		{"-polls", []string{"-polls", "-1"}},
	} {
		errb.Reset()
		args := append([]string{"-live", "127.0.0.1:1"}, c.args...)
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), c.flag) {
			t.Errorf("%v: exit %d, stderr %q; want 2 naming %s", c.args, code, errb.String(), c.flag)
		}
	}
	errb.Reset()
	if code := run([]string{"-live", "127.0.0.1:1", "-polls", "1"}, &out, &errb); code != 1 {
		t.Errorf("-live against a closed port: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
}
