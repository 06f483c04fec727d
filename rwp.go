// Package rwp is a trace-driven cache-hierarchy simulator built around
// Read-Write Partitioning (RWP), reproducing "Improving cache performance
// using read-write partitioning" (Khan, Alameldeen, Wilkerson, Mutlu,
// Jiménez — HPCA 2014).
//
// The package is the public facade over the simulator: it runs named
// synthetic SPEC-CPU2006-like workloads through a core timing model and
// an L1D/L2/LLC/DRAM hierarchy whose last-level replacement policy is
// selectable — the paper's RWP, its RRP comparison point, and the
// LRU/DIP/DRRIP/SHiP/UCP baselines.
//
// Quick start:
//
//	res, err := rwp.Run("mcf", rwp.Config{Policy: "rwp"})
//	base, err := rwp.Run("mcf", rwp.Config{Policy: "lru"})
//	fmt.Printf("speedup: %.2fx\n", res.IPC/base.IPC)
//
// The package's Examples run under go test with their output pinned;
// cmd/rwpexp is the full reproduction of the paper's tables and figures.
package rwp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rwp/internal/core"
	"rwp/internal/hier"
	"rwp/internal/overhead"
	"rwp/internal/policy"
	"rwp/internal/rrp"
	"rwp/internal/sim"
	"rwp/internal/stats"
	"rwp/internal/trace"
	"rwp/internal/workload"
)

// Config selects the system under test. The zero value of any field
// falls back to the paper-style default (LRU policy, 2 MiB 16-way LLC
// for single-core runs, 4 MiB for mixes, 0.5 M warmup and 2 M measured
// accesses).
type Config struct {
	// Policy names the LLC replacement mechanism; see Policies().
	Policy string
	// LLCBytes overrides the last-level cache capacity.
	LLCBytes int
	// LLCWays overrides the associativity.
	LLCWays int
	// Warmup is the number of accesses (per core) before measuring.
	Warmup uint64
	// Measure is the number of accesses (per core) in the measured
	// region.
	Measure uint64
	// Seed offsets the synthetic workloads' random streams: the same
	// behaviors and footprints, a different concrete access sequence.
	// Zero is the canonical run; robustness checks sweep a few values.
	Seed uint64
}

func (c Config) options(cores int) (sim.Options, error) {
	opt := sim.DefaultOptions()
	if cores > 1 {
		opt.Hier = hier.MulticoreConfig(cores)
	}
	if c.Policy != "" {
		opt.Hier.LLCPolicy = c.Policy
	}
	if c.LLCBytes > 0 {
		opt.Hier.LLC.SizeBytes = c.LLCBytes
	}
	if c.LLCWays > 0 {
		opt.Hier.LLC.Ways = c.LLCWays
	}
	if c.Warmup > 0 {
		opt.Warmup = c.Warmup
	}
	if c.Measure > 0 {
		opt.Measure = c.Measure
	}
	return opt, opt.Validate()
}

// Result summarizes one core's measured region.
type Result struct {
	// Workload and Policy label the run.
	Workload string
	Policy   string
	// IPC is instructions per cycle over the measured region.
	IPC float64
	// Instructions and Cycles are the measured-region totals.
	Instructions uint64
	Cycles       uint64
	// ReadMPKI is LLC demand-load misses per kilo-instruction — the
	// quantity RWP minimizes.
	ReadMPKI float64
	// TotalMPKI counts all LLC misses per kilo-instruction.
	TotalMPKI float64
	// WritebacksPKI is DRAM write traffic per kilo-instruction.
	WritebacksPKI float64
	// LLCReadHitRate is demand-load hits / demand-load accesses at the
	// LLC (0 when the LLC saw no demand loads).
	LLCReadHitRate float64
}

func fromSim(r sim.Result) Result {
	out := Result{
		Workload:      r.Workload,
		Policy:        r.Policy,
		IPC:           r.IPC,
		Instructions:  r.Instructions,
		Cycles:        r.Core.Cycles,
		ReadMPKI:      r.ReadMPKI,
		TotalMPKI:     r.TotalMPKI,
		WritebacksPKI: r.WBPKI,
	}
	if acc := r.LLC.ReadAccesses(); acc > 0 {
		out.LLCReadHitRate = float64(acc-r.LLC.ReadMisses()) / float64(acc)
	}
	return out
}

// Run simulates one named workload on a single-core system.
func Run(workloadName string, cfg Config) (Result, error) {
	prof, err := workload.Get(workloadName)
	if err != nil {
		return Result{}, err
	}
	prof = prof.WithSeed(cfg.Seed)
	opt, err := cfg.options(1)
	if err != nil {
		return Result{}, err
	}
	r, err := sim.RunSingle(prof, opt)
	if err != nil {
		return Result{}, err
	}
	return fromSim(r), nil
}

// MixResult summarizes a multiprogrammed run.
type MixResult struct {
	Policy string
	// PerCore holds each core's result in mix order.
	PerCore []Result
	// Throughput is Σ per-core IPC (the paper's system-throughput
	// metric).
	Throughput float64
}

// WeightedSpeedup computes Σ IPC_shared/IPC_alone against the supplied
// solo IPCs (same order as the mix).
func (m MixResult) WeightedSpeedup(alone []float64) float64 {
	ipcs := make([]float64, len(m.PerCore))
	for i, r := range m.PerCore {
		ipcs[i] = r.IPC
	}
	return stats.WeightedSpeedup(ipcs, alone)
}

// RunMix simulates one workload per core on a shared-LLC system (the
// paper's 4-core configuration when given four names).
func RunMix(workloadNames []string, cfg Config) (MixResult, error) {
	profs := make([]workload.Profile, len(workloadNames))
	for i, n := range workloadNames {
		p, err := workload.Get(n)
		if err != nil {
			return MixResult{}, err
		}
		profs[i] = p.WithSeed(cfg.Seed)
	}
	opt, err := cfg.options(len(workloadNames))
	if err != nil {
		return MixResult{}, err
	}
	mr, err := sim.RunMulti(profs, opt)
	if err != nil {
		return MixResult{}, err
	}
	out := MixResult{Policy: mr.Policy, Throughput: mr.Throughput()}
	for _, r := range mr.PerCore {
		out.PerCore = append(out.PerCore, fromSim(r))
	}
	return out, nil
}

// IntervalPoint is one window of a phased time-series run.
type IntervalPoint struct {
	// EndAccess is the measured-access count at the window's end.
	EndAccess uint64
	// IPC and ReadMPKI over the window.
	IPC      float64
	ReadMPKI float64
	// DirtyTarget is RWP's dirty-partition size at the window's end
	// (-1 for non-RWP policies).
	DirtyTarget int
}

// RunPhases concatenates the named workloads into one phased execution
// (each phase contributing Measure accesses, the first also preceded by
// the warmup) and returns the per-window time series alongside the
// overall result. It is the public face of the paper's partition-
// dynamics experiment (E8): watch DirtyTarget adapt as phases change.
func RunPhases(workloadNames []string, cfg Config, window uint64) (Result, []IntervalPoint, error) {
	if len(workloadNames) == 0 {
		return Result{}, nil, fmt.Errorf("rwp: RunPhases needs at least one workload")
	}
	opt, err := cfg.options(1)
	if err != nil {
		return Result{}, nil, err
	}
	srcs := make([]trace.Source, len(workloadNames))
	label := ""
	for i, n := range workloadNames {
		prof, err := workload.Get(n)
		if err != nil {
			return Result{}, nil, err
		}
		prof = prof.WithSeed(cfg.Seed)
		limit := opt.Measure
		if i == 0 {
			limit += opt.Warmup
		}
		srcs[i] = trace.NewLimit(prof.NewSource(), limit)
		if i > 0 {
			label += "+"
		}
		label += n
	}
	opt.Measure = opt.Measure * uint64(len(workloadNames))
	res, series, err := sim.RunSourceIntervals(label, trace.NewConcat(srcs...), opt, window)
	if err != nil {
		return Result{}, nil, err
	}
	out := make([]IntervalPoint, len(series))
	for i, iv := range series {
		out[i] = IntervalPoint{
			EndAccess:   iv.EndAccess,
			IPC:         iv.IPC,
			ReadMPKI:    iv.ReadMPKI,
			DirtyTarget: iv.DirtyTarget,
		}
	}
	return fromSim(res), out, nil
}

// WorkloadInfo describes one synthetic benchmark.
type WorkloadInfo struct {
	Name string
	// CacheSensitive marks membership in the paper's cache-sensitive
	// subset.
	CacheSensitive bool
	// MemIntensity is memory references per instruction.
	MemIntensity float64
}

// Workloads enumerates the benchmark suite, sorted by name.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, p := range workload.All() {
		out = append(out, WorkloadInfo{
			Name:           p.Name,
			CacheSensitive: p.CacheSensitive,
			MemIntensity:   p.MemIntensity,
		})
	}
	return out
}

// Policies lists the selectable LLC mechanisms, sorted by name.
// Hyphenated registrations (experiment instrumentation and ablation
// variants like "rwp-static-4") are internal and filtered out, though
// Config.Policy accepts them when the experiments package is linked in.
func Policies() []string {
	names := policy.Names()
	out := names[:0]
	for _, n := range names {
		if strings.Contains(n, "-") {
			continue
		}
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RunTrace simulates a recorded binary trace (as produced by WriteTrace
// or rwptrace) on a single-core system. The trace must be longer than
// the configured warmup; the measured region ends at the trace's end or
// at Warmup+Measure accesses, whichever comes first.
func RunTrace(name string, r io.Reader, cfg Config) (Result, error) {
	opt, err := cfg.options(1)
	if err != nil {
		return Result{}, err
	}
	res, err := sim.RunSource(name, trace.NewReader(r), opt)
	if err != nil {
		return Result{}, err
	}
	return fromSim(res), nil
}

// WriteTrace generates n accesses of the named workload in the binary
// trace format (decodable with ReadTraceSummary or internal/trace).
func WriteTrace(w io.Writer, workloadName string, n uint64) (uint64, error) {
	prof, err := workload.Get(workloadName)
	if err != nil {
		return 0, err
	}
	return trace.WriteAll(w, trace.NewLimit(prof.NewSource(), n))
}

// TraceSummary reports the aggregate shape of a binary trace.
type TraceSummary struct {
	Accesses     uint64
	Loads        uint64
	Stores       uint64
	Lines        uint64
	Instructions uint64
	ReadRatio    float64
}

// ReadTraceSummary decodes a binary trace and summarizes it.
func ReadTraceSummary(r io.Reader) (TraceSummary, error) {
	st, err := trace.Summarize(trace.NewReader(r))
	if err != nil {
		return TraceSummary{}, err
	}
	return TraceSummary{
		Accesses:     st.Accesses,
		Loads:        st.Loads,
		Stores:       st.Stores,
		Lines:        st.Lines,
		Instructions: st.Instructions,
		ReadRatio:    st.ReadRatio(),
	}, nil
}

// StateOverhead returns the hardware state cost, in bits, of a mechanism
// on the configured LLC, together with a human-readable breakdown.
// Supported mechanisms: lru, dip, drrip, ship, rwp, rrp.
func StateOverhead(policyName string, cfg Config) (bits uint64, breakdown string, err error) {
	llc := hier.DefaultConfig().LLC
	if cfg.LLCBytes > 0 {
		llc.SizeBytes = cfg.LLCBytes
	}
	if cfg.LLCWays > 0 {
		llc.Ways = cfg.LLCWays
	}
	if err := llc.Validate(); err != nil {
		return 0, "", err
	}
	var b overhead.Breakdown
	switch policyName {
	case "lru":
		b = overhead.LRU(llc)
	case "dip":
		b = overhead.DIP(llc, policy.DefaultPSELBits)
	case "drrip":
		b = overhead.DRRIP(llc, policy.DefaultRRPVBits, policy.DefaultPSELBits)
	case "ship":
		b = overhead.SHiP(llc, policy.DefaultRRPVBits, policy.DefaultSHCTBits, 3)
	case "rwp":
		b = overhead.RWP(llc, core.DefaultConfig())
	case "rrp":
		b = overhead.RRP(llc, rrp.DefaultConfig())
	default:
		return 0, "", fmt.Errorf("rwp: no overhead model for policy %q", policyName)
	}
	return b.TotalBits(), b.String(), nil
}
