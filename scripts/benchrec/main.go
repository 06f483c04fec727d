// Command benchrec records how a change moves the repository's benchmark
// against its parent commit, in one sorted-key BENCH_<pr>.json at the
// repo root: the performance trajectory, one file per PR.
//
//	go run ./scripts/benchrec -pr 32 -workloads tcp_pipe:10,cluster_batch:10,direct_fit:1
//	go run ./scripts/benchrec -pr 32 -seed 7 -workloads cluster_batch:10
//	go run ./scripts/benchrec -check BENCH_32.json
//
// The change is the working tree; the parent is HEAD, exported with git
// archive into a temporary directory. Each side runs
// `bash bench/run.sh -workload W -seed S -trace 0` in its own checkout,
// which builds that checkout. Runs come in pairs, and odd pairs run the
// parent first. A host that is shared drifts by tens of percent between
// sessions, so the file never compares wall clock across sessions: it
// keeps both sides of every pair, run back to back, and the trajectory
// across PRs is a chain of those same-session comparisons.
//
// Per seed, workload and end-to-end metric the file records every run
// of both sides, each side's median and quartiles, the change-to-parent
// ratio of medians, how many pairs the change won, whether the metric
// is exact, and a verdict (see verdict). A later run for the same
// parent and -pr adds its seed and workloads to the file, replacing
// only what it measured again.
//
// -check FILE exits 1 when an exact metric differs between the two
// sides, or when a change median is worse than the parent's by more than
// the metric's bound in BENCHMARK.json.
//
//	go run ./scripts/benchrec -head
//
// -head runs the working tree once per workload at seed 1 and holds it
// to the change side of the newest BENCH_<pr>.json: every exact metric
// bit for bit, allocs_per_op within its bound. It exits 1 when a metric
// has moved, so a counted metric cannot move without a new record.
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

const schema = "rwp-bench-trajectory-v1"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pr := fs.Int("pr", 0, "the PR number: the record goes to BENCH_<pr>.json at the repo root")
	seed := fs.Uint64("seed", 1, "the benchmark's -seed")
	workloads := fs.String("workloads", "", "comma-separated W or W:pairs (default: every workload in BENCHMARK.json, 10 pairs each)")
	check := fs.String("check", "", "check a recorded file against BENCHMARK.json's bounds instead of running")
	head := fs.Bool("head", false, "run the working tree once per workload at seed 1 against the newest record instead of recording")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	modes := 0
	for _, on := range []bool{*pr > 0, *check != "", *head} {
		if on {
			modes++
		}
	}
	if fs.NArg() > 0 || modes != 1 {
		fmt.Fprintln(stderr, "benchrec: give -pr N to record, -check FILE or -head; see -h")
		return 2
	}
	root, err := gitOutput("", "rev-parse", "--show-toplevel")
	var spec *benchSpec
	if err == nil {
		spec, err = loadSpec(root)
	}
	switch {
	case err != nil:
	case *check != "":
		return checkFile(*check, spec, stdout, stderr)
	case *head:
		return headCheck(root, spec, stdout, stderr)
	default:
		err = record(root, spec, *pr, *seed, *workloads, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchrec:", err)
		return 1
	}
	return 0
}

// metricSpec is one end-to-end metric as the benchmark declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	exact  bool
}

// benchSpec is BENCHMARK.json's workloads and end-to-end metrics, with
// each metric's exactness taken from bench/spec.go, which declares it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exact, err := exactMetrics(filepath.Join(root, "bench", "spec.go"))
	if err != nil {
		return nil, err
	}
	for i := range spec.EndToEnd {
		spec.EndToEnd[i].exact = exact[spec.EndToEnd[i].Name]
	}
	return &spec, nil
}

// exactMetrics reads the names of the end-to-end metrics marked
// `exact: true` in the endToEnd table of bench/spec.go.
func exactMetrics(path string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}
	exact := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "endToEnd" || len(vs.Values) != 1 {
			return true
		}
		table, _ := vs.Values[0].(*ast.CompositeLit)
		if table == nil {
			return false
		}
		for _, elt := range table.Elts {
			row, _ := elt.(*ast.CompositeLit)
			if row == nil {
				continue
			}
			var name string
			var isExact bool
			for _, field := range row.Elts {
				if kv, ok := field.(*ast.KeyValueExpr); ok {
					switch val := types.ExprString(kv.Value); types.ExprString(kv.Key) {
					case "name":
						name, _ = strconv.Unquote(val)
					case "exact":
						isExact = val == "true"
					}
				}
			}
			if isExact {
				exact[name] = true
			}
		}
		return false
	})
	if len(exact) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end metric is marked exact; has the endToEnd table moved?", path)
	}
	return exact, nil
}

// side is one commit's runs of one metric, in pair order.
type side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

func newSide(runs []float64) side {
	return side{Median: quantile(runs, 0.5), Q1: quantile(runs, 0.25), Q3: quantile(runs, 0.75), Runs: runs}
}

// quantile interpolates linearly between the order statistics.
func quantile(runs []float64, q float64) float64 {
	s := slices.Clone(runs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// metricRec compares one metric between the two sides. The fields are
// in alphabetical order of their keys, so the file's keys are sorted.
type metricRec struct {
	Better     string   `json:"better"`
	Bound      float64  `json:"bound"`
	Change     side     `json:"change"`
	ChangeWins int      `json:"change_wins"` // pairs the change won; ties count for neither side
	Exact      bool     `json:"exact"`
	Parent     side     `json:"parent"`
	Ratio      *float64 `json:"ratio,omitempty"` // change median over parent median; absent when the parent's is 0
	Unit       string   `json:"unit"`
	Verdict    string   `json:"verdict"`
}

func newMetricRec(m metricSpec, parent, change []float64) *metricRec {
	r := &metricRec{Better: m.Better, Bound: m.Bound, Exact: m.exact, Unit: m.Unit,
		Parent: newSide(parent), Change: newSide(change)}
	for i := range parent {
		if m.Better == "lower" && change[i] < parent[i] || m.Better == "higher" && change[i] > parent[i] {
			r.ChangeWins++
		}
	}
	if r.Parent.Median > 0 { // every metric is non-negative
		ratio := r.Change.Median / r.Parent.Median
		r.Ratio = &ratio
	}
	r.Verdict = verdict(m, r)
	return r
}

// verdict classifies a comparison:
//
//   - identical / differs: an exact metric, bit for bit over every run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - better: over ten pairs or more, the change won at least nine in
//     ten, and the medians differ by more than the distance between the
//     parent's quartiles;
//   - unresolved: neither, and the parent's own quartiles are further
//     apart than the bound, so a move within it cannot be told from noise;
//   - within bound: otherwise.
//
// Only differs and worse fail -check.
func verdict(m metricSpec, r *metricRec) string {
	if m.exact {
		for _, v := range append(slices.Clone(r.Parent.Runs), r.Change.Runs...) {
			if math.Float64bits(v) != math.Float64bits(r.Parent.Runs[0]) {
				return "differs"
			}
		}
		return "identical"
	}
	gain := r.Change.Median - r.Parent.Median // in the better direction
	if m.Better == "lower" {
		gain = -gain
	}
	base := math.Abs(r.Parent.Median)
	iqr := r.Parent.Q3 - r.Parent.Q1
	pairs := len(r.Parent.Runs)
	switch {
	case -gain > m.Bound*base:
		return "worse"
	case pairs >= 10 && 10*r.ChangeWins >= 9*pairs && gain > iqr:
		return "better"
	case iqr > m.Bound*base:
		return "unresolved"
	}
	return "within bound"
}

// comparison is one workload on one seed.
type comparison struct {
	Metrics map[string]*metricRec `json:"metrics"`
	Pairs   int                   `json:"pairs"`
}

// trajectory is one BENCH_<pr>.json.
type trajectory struct {
	Command string                            `json:"command"`
	Host    hostInfo                          `json:"host"`
	Parent  string                            `json:"parent"`
	PR      int                               `json:"pr"`
	Schema  string                            `json:"schema"`
	Seeds   map[string]map[string]*comparison `json:"seeds"` // seed, then workload
}

type hostInfo struct {
	CPUs int    `json:"cpus"`
	Go   string `json:"go"`
}

const command = "bash bench/run.sh -workload W -seed S -trace 0"

// record runs the pairs of the working tree against HEAD and merges them
// into BENCH_<pr>.json.
func record(root string, spec *benchSpec, pr int, seed uint64, workloads string, log io.Writer) error {
	plan, err := parsePlan(spec, workloads)
	if err != nil {
		return err
	}
	parent, err := gitOutput(root, "rev-parse", "--verify", "HEAD^{commit}")
	if err != nil {
		return err
	}
	out := filepath.Join(root, fmt.Sprintf("BENCH_%d.json", pr))
	t := &trajectory{Command: command, Parent: parent, PR: pr, Schema: schema, Seeds: map[string]map[string]*comparison{},
		Host: hostInfo{CPUs: runtime.NumCPU(), Go: runtime.Version()}}
	if b, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(b, t); err != nil {
			return fmt.Errorf("%s: %w", out, err)
		}
		if t.Parent != parent || t.Schema != schema {
			return fmt.Errorf("%s was recorded against %s (%s); remove it to record against %s", out, t.Parent, t.Schema, parent)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchrec-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := exportCommit(root, parent, tmp); err != nil {
		return err
	}
	key := strconv.FormatUint(seed, 10)
	if t.Seeds[key] == nil {
		t.Seeds[key] = map[string]*comparison{}
	}
	sides := [2]struct{ name, dir string }{{"parent", tmp}, {"change", root}}
	for _, p := range plan {
		runs := [2]map[string][]float64{{}, {}} // per side: metric -> runs in pair order
		for i := 1; i <= p.pairs; i++ {
			order := [2]int{0, 1} // odd pairs run the parent first
			if i%2 == 0 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				vals, err := benchOnce(sides[s].dir, p.workload, seed)
				if err != nil {
					return err
				}
				for _, m := range spec.EndToEnd {
					runs[s][m.Name] = append(runs[s][m.Name], vals[m.Name])
				}
				fmt.Fprintf(log, "benchrec: %s seed %d pair %d/%d %s: ops_per_s %.6g allocs_per_op %.6g\n",
					p.workload, seed, i, p.pairs, sides[s].name, vals["ops_per_s"], vals["allocs_per_op"])
			}
		}
		c := &comparison{Pairs: p.pairs, Metrics: map[string]*metricRec{}}
		for _, m := range spec.EndToEnd {
			c.Metrics[m.Name] = newMetricRec(m, runs[0][m.Name], runs[1][m.Name])
		}
		t.Seeds[key][p.workload] = c
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// planned is one workload and its pair count.
type planned struct {
	workload string
	pairs    int
}

// parsePlan reads -workloads: W or W:pairs, comma-separated, each a
// workload of BENCHMARK.json; empty means all of them at 10 pairs.
func parsePlan(spec *benchSpec, list string) ([]planned, error) {
	known := map[string]bool{}
	var names []string
	for _, w := range spec.Workloads {
		known[w.Name] = true
		names = append(names, w.Name)
	}
	if list == "" {
		list = strings.Join(names, ",")
	}
	var plan []planned
	for _, item := range strings.Split(list, ",") {
		name, count, hasCount := strings.Cut(item, ":")
		p := planned{workload: name, pairs: 10}
		if hasCount {
			n, err := strconv.Atoi(count)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("-workloads %q: pair count %q is not a positive integer", item, count)
			}
			p.pairs = n
		}
		if !known[name] {
			return nil, fmt.Errorf("-workloads: %q is not a workload of BENCHMARK.json (%s)", name, strings.Join(names, ", "))
		}
		plan = append(plan, p)
	}
	return plan, nil
}

// benchOnce runs the benchmark once in the checkout at dir and returns
// the end-to-end metric values from its result line, the last line of
// its standard output.
func benchOnce(dir, workload string, seed uint64) (map[string]float64, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("bash", "bench/run.sh", "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-trace", "0")
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: bench/run.sh -workload %s: %v\n%s", dir, workload, err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: %s: result line: %w", dir, workload, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s: %s: the run failed verification", dir, workload)
	}
	vals := map[string]float64{}
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// exportCommit writes the tree of commit rev into dir.
func exportCommit(root, rev, dir string) error {
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Dir = root
	var archive, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &archive, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("git archive %s: %v: %s", rev, err, stderr.Bytes())
	}
	tr := tar.NewReader(&archive)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			var b []byte
			if b, err = io.ReadAll(tr); err == nil {
				err = os.WriteFile(path, b, os.FileMode(h.Mode).Perm())
			}
		case tar.TypeSymlink:
			err = os.Symlink(h.Linkname, path)
		}
		if err != nil {
			return err
		}
	}
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// checkFile prints every comparison in a recorded file, judged against
// the current bounds, and returns 1 when any exact metric differs or any
// median is worse than its bound allows.
func checkFile(path string, spec *benchSpec, stdout, stderr io.Writer) int {
	b, err := os.ReadFile(path)
	var t trajectory
	if err == nil {
		err = json.Unmarshal(b, &t)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchrec:", err)
		return 1
	}
	failed := 0
	fmt.Fprintf(stdout, "%-6s %-14s %-22s %14s %14s %8s %6s  %s\n", "seed", "workload", "metric", "parent", "change", "ratio", "wins", "verdict")
	for _, seed := range sortedKeys(t.Seeds) {
		for _, w := range sortedKeys(t.Seeds[seed]) {
			c := t.Seeds[seed][w]
			for _, m := range spec.EndToEnd {
				rec := c.Metrics[m.Name]
				if rec == nil || len(rec.Parent.Runs) == 0 || len(rec.Change.Runs) != len(rec.Parent.Runs) {
					fmt.Fprintf(stderr, "benchrec: seed %s %s: no paired runs of %s\n", seed, w, m.Name)
					failed++
					continue
				}
				r := newMetricRec(m, rec.Parent.Runs, rec.Change.Runs)
				ratio := "-"
				if r.Ratio != nil {
					ratio = strconv.FormatFloat(*r.Ratio, 'f', 4, 64)
				}
				fmt.Fprintf(stdout, "%-6s %-14s %-22s %14.6g %14.6g %8s %3d/%-2d  %s\n",
					seed, w, m.Name, r.Parent.Median, r.Change.Median, ratio, r.ChangeWins, c.Pairs, r.Verdict)
				if r.Verdict == "differs" || r.Verdict == "worse" {
					failed++
				}
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchrec: %s: %d comparisons fail\n", path, failed)
		return 1
	}
	return 0
}

// headSeed is the seed -head runs: every record carries it for every
// workload.
const headSeed = 1

// newestRecord returns the path of the BENCH_<pr>.json at root with the
// largest pr.
func newestRecord(root string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	newest, best := "", -1
	for _, p := range paths {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
		if err == nil && n > best {
			newest, best = p, n
		}
	}
	if newest == "" {
		return "", fmt.Errorf("no BENCH_<pr>.json in %s", root)
	}
	return newest, nil
}

// headCheck runs the working tree once per workload at headSeed and
// prints each exact metric and allocs_per_op beside the newest record's
// change median. It returns 1 when any of them moved (headCompare).
func headCheck(root string, spec *benchSpec, stdout, stderr io.Writer) int {
	path, err := newestRecord(root)
	var t trajectory
	if err == nil {
		var b []byte
		if b, err = os.ReadFile(path); err == nil {
			err = json.Unmarshal(b, &t)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchrec:", err)
		return 1
	}
	seed := strconv.Itoa(headSeed)
	failed := 0
	fmt.Fprintf(stdout, "%-14s %-22s %20s %20s  %s\n", "workload", "metric", filepath.Base(path), "head", "verdict")
	for _, w := range spec.Workloads {
		c := t.Seeds[seed][w.Name]
		if c == nil {
			fmt.Fprintf(stderr, "benchrec: %s has no seed-%s record of %s\n", path, seed, w.Name)
			failed++
			continue
		}
		got, err := benchOnce(root, w.Name, headSeed)
		if err != nil {
			fmt.Fprintln(stderr, "benchrec:", err)
			return 1
		}
		failed += headCompare(spec, w.Name, c, got, stdout)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchrec: -head: %d metrics moved since %s; record the change with -pr\n", failed, path)
		return 1
	}
	return 0
}

// headCompare prints one row per compared metric of workload — the
// exact ones and allocs_per_op, which is counted but not exact — with
// the record's change median beside the run's value got, and returns
// how many moved: an exact metric by any bit, allocs_per_op by more
// than its bound either way, since a counted metric that improves needs
// its record too. A metric the record lacks has moved.
func headCompare(spec *benchSpec, workload string, c *comparison, got map[string]float64, w io.Writer) (moved int) {
	for _, m := range spec.EndToEnd {
		if !m.exact && m.Name != "allocs_per_op" {
			continue
		}
		want, v := math.NaN(), got[m.Name]
		if rec := c.Metrics[m.Name]; rec != nil {
			want = rec.Change.Median
		}
		same := math.Abs(v-want) <= m.Bound*math.Abs(want)
		if m.exact {
			same = math.Float64bits(v) == math.Float64bits(want)
		}
		verdict := "same"
		if !same {
			verdict = "moved"
			moved++
		}
		fmt.Fprintf(w, "%-14s %-22s %20.17g %20.17g  %s\n", workload, m.Name, want, v, verdict)
	}
	return moved
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
