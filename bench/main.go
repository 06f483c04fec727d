// Command bench is the repo's benchmark: five workloads over the live
// cache, the wire protocol, the cluster router and the simulator, each
// measured end to end (thirteen metrics) and, in a separate traced run,
// layer by layer. See README.md beside this file.
//
//	go run -C bench .                                   every workload, both runs
//	go run -C bench . -workload tcp_pipe -trace 0       one workload, end to end
//	go run -C bench . -workload tcp_pipe -trace 1       one workload, per layer
//	go run -C bench . -aa 3                             A/A check of the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], nil, os.Stdout, os.Stderr)) }

// run is the whole command. tune, nil outside tests, adjusts each
// run's shape (a tiny scale, a faulty backend).
func run(args []string, tune func(*runOpts), stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Uint64("seed", 1, "the only input to the operation generators")
	seconds := fs.Float64("seconds", 12, "length of the measuring phase of an end-to-end run")
	trace := fs.Int("trace", -1, "0: end-to-end run, 1: traced per-layer run (default: both, one after the other)")
	out := fs.String("out", "out", "directory for the JSON records and trace files")
	aa := fs.Int("aa", 0, "A/A mode: two interleaved sets of this many full end-to-end runs; 3 is the usual count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < -1 || *trace > 1 || *seconds <= 0 || *aa < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	specs := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		specs = []workloadSpec{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *aa > 0 {
		return runAA(*aa, specs, *seed, *seconds, *out, stdout, stderr)
	}

	code := 0
	for _, spec := range specs {
		for mode := 0; mode <= 1; mode++ {
			if *trace >= 0 && mode != *trace {
				continue
			}
			o := defaultOpts(spec, *seed, *seconds, mode == 1)
			if tune != nil {
				tune(&o)
			}
			rec, err := measure(o, mode == 1, *out)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", spec.name, err)
				return 1
			}
			if err := rec.write(*out); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			rec.printLines(stdout)
			if !rec.correct() {
				fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed verification; law: %v\n", spec.name, rec.failed(), rec.leg.attempted, rec.leg.lawErr)
				code = 1
			}
			// The driver's contract: one workload, one mode, and the
			// result object as the last line.
			if *workload != "" && *trace >= 0 {
				rec.printResult(stdout)
			}
		}
	}
	return code
}

// record is one run of one workload in one mode.
type record struct {
	spec   workloadSpec
	traced bool
	opts   runOpts
	leg    *leg // the end-to-end leg, or a traced run's untraced leg
	defs   []metricDef
	values map[string]float64
}

// failed counts the operations that failed verification; a broken law
// fails them all.
func (r *record) failed() int {
	if r.leg.lawErr != nil {
		return r.leg.attempted
	}
	return r.leg.failed
}

func (r *record) correct() bool { return r.failed() == 0 }

// measure runs one workload in one mode.
func measure(o runOpts, traced bool, outDir string) (*record, error) {
	rec := &record{spec: o.spec, traced: traced, opts: o}
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	if traced {
		rec.defs = perLayer
		rec.leg, rec.values, err = tracedRun(o, ref, outDir)
	} else {
		rec.defs = endToEnd
		if o.spec.kind == kindSim {
			rec.leg, err = runSim(o, ref, nil)
		} else {
			var sys *system
			if rec.leg, sys, err = runLive(o, ref); err == nil {
				if err = sys.close(); err == nil {
					rec.leg.audit, err = audit(o)
				}
			}
		}
		if err == nil {
			rec.values = endToEndValues(rec.leg)
		}
	}
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// value is a metric's value, 0 when it was not measured on this
// workload or came out as a ratio over zero.
func (r *record) value(name string) float64 {
	v := r.values[name]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printLines prints one "workload metric value unit" line per metric.
func (r *record) printLines(w io.Writer) {
	for _, d := range r.defs {
		fmt.Fprintf(w, "%s %s %s %s\n", r.spec.name, d.name, strconv.FormatFloat(r.value(d.name), 'g', -1, 64), d.unit)
	}
}

// printResult prints the result object the driver reads from the last
// line of standard output.
func (r *record) printResult(w io.Writer) {
	metrics := map[string]any{}
	for _, d := range r.defs {
		metrics[d.name] = map[string]any{"value": r.value(d.name), "unit": d.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.leg.attempted, "failed": r.failed(), "metrics": metrics,
	})
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}

const recordSchema = "rwp-bench-record-v1"

// write stores the run as schema-versioned JSON with sorted keys: a
// header that identifies host, code and run shape, every metric with
// its unit, and the per-round arrays behind the medians so that spread
// can be audited.
func (r *record) write(dir string) error {
	l := r.leg
	mode := "end_to_end"
	if r.traced {
		mode = "per_layer"
	}
	samples := 0
	for _, rd := range l.rounds {
		samples += rd.samples
	}
	metrics := map[string]any{}
	for _, d := range r.defs {
		m := map[string]any{"value": r.value(d.name), "unit": d.unit, "better": d.better}
		switch d.name {
		case "p50_us", "p90_us", "client.p99_us":
			m["samples"] = samples
		}
		if d.layer != "" {
			m["layer"], m["moves"] = d.layer, d.moves
		}
		metrics[d.name] = m
	}
	rounds := map[string]any{
		"ops_per_s":     l.perRound(roundRec.rate),
		"raw_ops_per_s": l.perRound(roundRec.rawRate),
		"ref_mem_ms":    l.perRound(func(rd roundRec) float64 { return rd.ref.memMean() }),
		"ref_alu_ms":    l.perRound(func(rd roundRec) float64 { return rd.ref.aluMean() }),
		"cpu_us_per_op": l.perRound(roundRec.cpuPerOp),
		"p50_us":        l.perRound(func(rd roundRec) float64 { return rd.p50 }),
		"p90_us":        l.perRound(func(rd roundRec) float64 { return rd.p90 }),
		"p99_us":        l.perRound(func(rd roundRec) float64 { return rd.p99 }),
		"max_us":        l.perRound(func(rd roundRec) float64 { return rd.max }),
		"samples":       l.perRound(func(rd roundRec) float64 { return float64(rd.samples) }),
	}
	law := ""
	if l.lawErr != nil {
		law = l.lawErr.Error()
	}
	doc := map[string]any{
		"schema": recordSchema,
		"header": map[string]any{
			"workload": r.spec.name, "mode": mode, "seed": r.opts.seed, "seconds": r.opts.seconds,
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": commit(),
			"rounds": len(l.rounds), "exact_rounds": r.opts.exactAt(), "ops_per_round": l.rounds[0].ops, "setups": len(l.setupS),
		},
		"metrics": metrics,
		"rounds":  rounds,
		"setup_s": l.setupS,
		"verdict": map[string]any{"correct": r.correct(), "attempted": l.attempted, "failed": r.failed(), "law_error": law},
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "record_"+r.spec.name+"_"+mode+".json"), append(b, '\n'), 0o644)
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
