// Package exps implements the paper's evaluation: one experiment per
// table/figure (see DESIGN.md §5 for the index). Each experiment returns
// both a typed result and a rendered table; cmd/rwpexp regenerates
// EXPERIMENTS.md from them.
//
// Experiments execute through a shared internal/runner engine in two
// phases: plan (enqueue every simulation of the experiment as a job —
// the plan* helpers return futures) and collect (Wait on the futures in
// the experiment's own deterministic order and aggregate). The engine
// coalesces duplicate jobs, so, e.g., the LRU baselines computed for E3
// are reused by E4 and E9, runs them on a bounded worker pool, and can
// persist results across processes (cmd/rwpexp -j/-cache-dir).
package exps

import (
	"fmt"
	"sort"

	"rwp/internal/hier"
	"rwp/internal/report"
	"rwp/internal/runner"
	"rwp/internal/sim"
	"rwp/internal/workload"
)

// Scale selects run lengths: Quick for tests, Full for the recorded
// results in EXPERIMENTS.md.
type Scale struct {
	Name    string
	Warmup  uint64
	Measure uint64
	// Mixes is the number of 4-core combinations in E7.
	Mixes int
	// E8Phase is the per-phase access count in the partition-dynamics
	// experiment.
	E8Phase uint64
}

// Quick is the CI-sized scale.
var Quick = Scale{Name: "quick", Warmup: 100_000, Measure: 400_000, Mixes: 5, E8Phase: 400_000}

// Full is the scale used for the recorded EXPERIMENTS.md numbers.
var Full = Scale{Name: "full", Warmup: 400_000, Measure: 1_600_000, Mixes: 10, E8Phase: 1_500_000}

// Suite runs experiments at one scale through a shared engine.
type Suite struct {
	Scale Scale
	// Benches optionally restricts the benchmark set (for tests and
	// focused sweeps); nil means the full registered suite.
	Benches []string
	// Eng executes and memoizes every simulation job.
	Eng *runner.Engine
}

// NewSuite returns a Suite at the given scale over the full suite, with
// a default engine (GOMAXPROCS workers, no disk cache).
func NewSuite(scale Scale) *Suite {
	return NewSuiteEngine(scale, runner.NewDefault())
}

// NewSuiteEngine returns a Suite executing on the given engine
// (cmd/rwpexp injects one configured from -j/-cache-dir with a wall
// clock and progress observer).
func NewSuiteEngine(scale Scale, eng *runner.Engine) *Suite {
	return &Suite{Scale: scale, Eng: eng}
}

// singleOptions builds single-core options for a policy with overridable
// LLC geometry.
func (s *Suite) singleOptions(policy string, llcBytes, ways int) sim.Options {
	opt := sim.DefaultOptions()
	opt.Hier.LLCPolicy = policy
	if llcBytes > 0 {
		opt.Hier.LLC.SizeBytes = llcBytes
	}
	if ways > 0 {
		opt.Hier.LLC.Ways = ways
	}
	opt.Warmup = s.Scale.Warmup
	opt.Measure = s.Scale.Measure
	return opt
}

// planSingle enqueues one single-core run on the engine (phase one of
// plan/collect); duplicate requests coalesce onto one job.
func (s *Suite) planSingle(bench, policy string, llcBytes, ways int) *runner.Future[sim.Result] {
	return s.Eng.Single(bench, s.singleOptions(policy, llcBytes, ways))
}

// runSingle plans and immediately waits for one single-core run — the
// synchronous convenience for callers outside a plan/collect pair.
func (s *Suite) runSingle(bench, policy string, llcBytes, ways int) (sim.Result, error) {
	r, err := s.planSingle(bench, policy, llcBytes, ways).Wait()
	if err != nil {
		return sim.Result{}, fmt.Errorf("exps: %s/%s: %w", bench, policy, err)
	}
	return r, nil
}

// planMulti enqueues one multiprogrammed run on the standard multi-core
// geometry (one workload per core, in mix order).
func (s *Suite) planMulti(benches []string, policy string, cores int) *runner.Future[sim.MultiResult] {
	return s.Eng.Multi(benches, s.multiOptions(policy, cores))
}

// allBenches returns the benchmark names in scope, sorted.
func (s *Suite) allBenches() []string {
	if s.Benches == nil {
		return workload.Names()
	}
	out := append([]string(nil), s.Benches...)
	sort.Strings(out)
	return out
}

// sensitive returns the in-scope cache-sensitive benchmark names.
func (s *Suite) sensitive() []string {
	var out []string
	for _, n := range s.allBenches() {
		if p, err := workload.Get(n); err == nil && p.CacheSensitive {
			out = append(out, n)
		}
	}
	return out
}

// insensitive returns the in-scope complement of the sensitive set.
func (s *Suite) insensitive() []string {
	var out []string
	for _, n := range s.allBenches() {
		if p, err := workload.Get(n); err == nil && !p.CacheSensitive {
			out = append(out, n)
		}
	}
	return out
}

// Experiment couples an id with a runner producing the table that
// regenerates the corresponding paper figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Suite) (*report.Table, error)
}

// Registry lists every experiment in display order: the paper's tables
// and figures (E1–E10), the extensions (E11, A4) and the design-choice
// ablations (A1–A3).
func Registry() []Experiment {
	return []Experiment{
		{"E1", "LLC line lifetime classification (motivation, Fig. 1 analogue)",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E1(); return t, err }},
		{"E2", "Read vs write miss criticality (motivation, Fig. 2 analogue)",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E2(); return t, err }},
		{"E3", "Single-core speedup of RWP over LRU (Fig. 6/7 analogue)",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E3(); return t, err }},
		{"E4", "RWP vs DIP/DRRIP/SHiP/RRP (Fig. 8 analogue)",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E4(); return t, err }},
		{"E5", "State overhead of each mechanism (Table 2 analogue)",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E5(); return t, err }},
		{"E6", "LLC size sensitivity 1/2/4/8 MiB",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E6(); return t, err }},
		{"E7", "4-core shared-LLC throughput and weighted speedup",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E7(); return t, err }},
		{"E8", "Dirty-partition dynamics across program phases",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E8(); return t, err }},
		{"E9", "Writeback traffic: RWP vs LRU",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E9(); return t, err }},
		{"E10", "Associativity sensitivity 8/16/32 ways",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E10(); return t, err }},
		{"A1", "Ablation: dynamic predictor vs every static partition",
			func(s *Suite) (*report.Table, error) { t, _, err := s.A1(); return t, err }},
		{"A2", "Ablation: sampler set count",
			func(s *Suite) (*report.Table, error) { t, _, err := s.A2(); return t, err }},
		{"A3", "Ablation: repartitioning interval and decay",
			func(s *Suite) (*report.Table, error) { t, _, err := s.A3(); return t, err }},
		{"E11", "Extension: RWP vs LRU throughput by core count",
			func(s *Suite) (*report.Table, error) { t, _, err := s.E11(); return t, err }},
		{"A4", "Extension: RWPB writeback bypass vs RWP",
			func(s *Suite) (*report.Table, error) { t, _, err := s.A4(); return t, err }},
	}
}

// multiOptions builds the 4-core options.
func (s *Suite) multiOptions(policy string, cores int) sim.Options {
	opt := sim.DefaultOptions()
	opt.Hier = hier.MulticoreConfig(cores)
	opt.Hier.LLCPolicy = policy
	opt.Warmup = s.Scale.Warmup
	opt.Measure = s.Scale.Measure
	return opt
}
