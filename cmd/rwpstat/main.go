// Command rwpstat loads run journals written by `rwpexp -metrics-dir`
// (canonical JSONL, schema internal/probe) and renders them as tables:
// per-run headline results, run-level cache events split by partition,
// and (with -series) the per-interval time series of IPC, read misses
// and partition occupancy. A journal carries each core's sim.Result;
// the events row is derived from the first core's LLC counts (a mix's
// cores all carry the shared LLC's): clean hits are hits minus dirty
// hits, clean evictions are evictions minus dirty evictions.
//
// Examples:
//
//	rwpstat results/metrics/single-ab12cd….jsonl
//	rwpstat -dir results/metrics
//	rwpstat -dir results/metrics -series
//
// With -live it instead polls a running rwpserve's /stats endpoint and
// streams one line of interval deltas per poll (ops, read hit rate,
// retarget direction split, exact interval p99 service cost):
//
//	rwpstat -live 127.0.0.1:8344 -every 2s
//	rwpstat -live http://127.0.0.1:8344/stats -polls 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rwp/internal/cache"
	"rwp/internal/probe"
	"rwp/internal/report"
	"rwp/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: parse flags, load every journal, render.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rwpstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "load every *.jsonl journal in this directory")
	series := fs.Bool("series", false, "also render each journal's per-interval time series")
	liveURL := fs.String("live", "", "poll a running rwpserve (host:port or /stats URL) and print interval deltas")
	every := fs.Duration("every", time.Second, "polling cadence for -live")
	polls := fs.Int("polls", 0, "number of polls for -live (0: poll until the connection fails)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *liveURL != "" {
		if fs.NArg() > 0 || *dir != "" {
			fmt.Fprintln(stderr, "rwpstat: -live does not combine with journal arguments")
			return 2
		}
		if *every <= 0 {
			fmt.Fprintf(stderr, "rwpstat: -every %v: want a positive polling cadence\n", *every)
			return 2
		}
		if *polls < 0 {
			fmt.Fprintf(stderr, "rwpstat: -polls %d: want 0 (until the connection fails) or a positive count\n", *polls)
			return 2
		}
		if err := runLive(stdout, *liveURL, *every, *polls, nil); err != nil {
			fmt.Fprintf(stderr, "rwpstat: %v\n", err)
			return 1
		}
		return 0
	}
	paths, err := journalPaths(*dir, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "rwpstat: %v\n", err)
		return 1
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "rwpstat: no journals: pass files or -dir (see -h)")
		return 2
	}
	var loaded []*namedJournal
	for _, p := range paths {
		j, err := loadJournal(p)
		if err != nil {
			fmt.Fprintf(stderr, "rwpstat: %v\n", err)
			return 1
		}
		loaded = append(loaded, j)
	}
	if err := render(stdout, loaded, *series); err != nil {
		fmt.Fprintf(stderr, "rwpstat: %v\n", err)
		return 1
	}
	return 0
}

// namedJournal pairs a decoded journal and its per-core results with
// its display label.
type namedJournal struct {
	label   string
	j       *probe.Journal
	results []sim.Result
}

// journalPaths merges explicit files with a directory listing. The
// directory's journals are sorted by name, so output order is
// deterministic regardless of filesystem enumeration order.
func journalPaths(dir string, files []string) ([]string, error) {
	paths := append([]string(nil), files...)
	if dir != "" {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var fromDir []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".jsonl") {
				fromDir = append(fromDir, filepath.Join(dir, e.Name()))
			}
		}
		sort.Strings(fromDir)
		paths = append(paths, fromDir...)
	}
	return paths, nil
}

func loadJournal(path string) (*namedJournal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	j, err := probe.ReadJournal(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	results := make([]sim.Result, len(j.Results))
	for i, raw := range j.Results {
		if err := json.Unmarshal(raw, &results[i]); err != nil {
			return nil, fmt.Errorf("%s: result %d: %w", path, i, err)
		}
	}
	label := j.Header.Desc
	if label == "" {
		label = filepath.Base(path)
	}
	return &namedJournal{label: label, j: j, results: results}, nil
}

// render writes the results table, the cache-events table, and (when
// series is set) one time-series table per journal.
func render(w io.Writer, journals []*namedJournal, series bool) error {
	res := report.New("run results",
		"journal", "workload", "policy", "IPC", "rdMPKI", "totMPKI", "WBPKI")
	for _, nj := range journals {
		for _, r := range nj.results {
			res.AddRow(nj.label, r.Workload, r.Policy,
				report.F(r.IPC, 3), report.F(r.ReadMPKI, 2),
				report.F(r.TotalMPKI, 2), report.F(r.WBPKI, 2))
		}
	}
	if err := res.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	ev := report.New("cache events (measured region)",
		"journal", "accesses", "hits", "hit-clean", "hit-dirty",
		"bypasses", "evict-clean", "evict-dirty", "retargets", "final-d")
	for _, nj := range journals {
		var llc cache.Stats
		if len(nj.results) > 0 {
			llc = nj.results[0].LLC
		}
		hitDirty := llc.HitsDirty[cache.DemandLoad] + llc.HitsDirty[cache.DemandStore] + llc.HitsDirty[cache.Writeback]
		finalD := "-"
		if d := nj.j.FinalTarget(); d >= 0 {
			finalD = report.I(d)
		}
		ev.AddRow(nj.label, report.I(llc.TotalAccesses()), report.I(llc.TotalHits()),
			report.I(llc.TotalHits()-hitDirty), report.I(hitDirty), report.I(llc.TotalBypasses()),
			report.I(llc.Evictions-llc.DirtyEvict), report.I(llc.DirtyEvict),
			report.I(len(nj.j.Retargets)), finalD)
	}
	ev.Note = "final-d is RWP's last dirty-partition target; '-' = not an RWP-family policy"
	if err := ev.Render(w); err != nil {
		return err
	}

	if !series {
		return nil
	}
	for _, nj := range journals {
		fmt.Fprintln(w)
		if err := seriesTable(nj).Render(w); err != nil {
			return err
		}
	}
	return nil
}

// seriesTable renders one journal's interval records. Instructions,
// cycles and read misses are stored cumulatively; the table shows
// per-window deltas (and the window IPC derived from them), which is
// what partition-dynamics plots want.
func seriesTable(nj *namedJournal) *report.Table {
	t := report.New(fmt.Sprintf("time series: %s (window %d accesses)", nj.label, nj.j.Header.Window),
		"interval", "end-access", "dInsts", "dCycles", "IPC", "dRdMiss", "d-target", "dirty", "valid")
	var prevI, prevC, prevM uint64
	for _, iv := range nj.j.Intervals {
		dI := iv.Instructions - prevI
		dC := iv.Cycles - prevC
		dM := iv.LLCReadMisses - prevM
		prevI, prevC, prevM = iv.Instructions, iv.Cycles, iv.LLCReadMisses
		ipc := "-"
		if dC > 0 {
			ipc = report.F(float64(dI)/float64(dC), 3)
		}
		target := "-"
		if iv.DirtyTarget >= 0 {
			target = report.I(iv.DirtyTarget)
		}
		t.AddRow(report.I(iv.Index), report.I(iv.EndAccess),
			report.I(dI), report.I(dC), ipc, report.I(dM),
			target, report.I(iv.DirtyLines), report.I(iv.ValidLines))
	}
	return t
}
