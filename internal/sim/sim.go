// Package sim drives workloads through the core timing model and the
// memory hierarchy: single-core runs for the paper's per-benchmark
// figures and interleaved multi-core runs for the shared-LLC experiments.
//
// Runs are deterministic: the same Options produce bit-identical Results.
package sim

import (
	"fmt"

	"rwp/internal/cache"
	"rwp/internal/cpu"
	"rwp/internal/dram"
	"rwp/internal/hier"
	"rwp/internal/mem"
	"rwp/internal/probe"
	"rwp/internal/stats"
	"rwp/internal/trace"
	"rwp/internal/workload"

	// Register every evaluated policy in the shared registry.
	_ "rwp/internal/core"
	_ "rwp/internal/rrp"
	_ "rwp/internal/ucp"
)

// Options configures a run.
type Options struct {
	// Hier is the memory-system configuration (its LLCPolicy field names
	// the mechanism under test).
	Hier hier.Config
	// CPU is the core model configuration.
	CPU cpu.Config
	// Warmup is the number of memory accesses (per core) to run before
	// statistics reset.
	Warmup uint64
	// Measure is the number of memory accesses (per core) in the
	// measured region.
	Measure uint64
}

// DefaultOptions returns the single-core configuration used by the
// experiment suite.
func DefaultOptions() Options {
	return Options{
		Hier:    hier.DefaultConfig(),
		CPU:     cpu.DefaultConfig(),
		Warmup:  500_000,
		Measure: 2_000_000,
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	if err := o.Hier.Validate(); err != nil {
		return err
	}
	if err := o.CPU.Validate(); err != nil {
		return err
	}
	if o.Measure == 0 {
		return fmt.Errorf("sim: Measure must be positive")
	}
	return nil
}

// Result summarizes one core's measured region.
type Result struct {
	Workload string
	Policy   string

	Core cpu.Stats
	L1   cache.Stats
	L2   cache.Stats
	LLC  cache.Stats
	DRAM dram.Stats

	// IPC over the measured region.
	IPC float64
	// Instructions in the measured region.
	Instructions uint64
	// ReadMPKI is LLC demand-load misses per kilo-instruction.
	ReadMPKI float64
	// TotalMPKI is all LLC misses per kilo-instruction.
	TotalMPKI float64
	// WBPKI is DRAM writebacks per kilo-instruction.
	WBPKI float64
}

// RunSingle executes one workload on a single-core system.
func RunSingle(prof workload.Profile, opt Options) (Result, error) {
	return runSingleCore("workload", prof.Name, prof.NewSource(), opt, observer{})
}

// RunSingleProbe is RunSingle with an attached probe. The probe is wired
// to the hierarchy at the warmup boundary, so the policy events it
// receives cover exactly the measured region (like Result's stats);
// every p.Window() measured accesses it additionally receives an
// IntervalEnd snapshot. Attaching a probe never changes the Result — the probe only
// observes (enforced by probe_test.go).
func RunSingleProbe(prof workload.Profile, opt Options, p probe.Probe) (Result, error) {
	var obs observer
	if p != nil {
		obs = observer{probe: p, window: p.Window(), interval: p.IntervalEnd}
	}
	return runSingleCore("workload", prof.Name, prof.NewSource(), opt, obs)
}

// observer is what an entry point may hang on the single-core loop; the
// zero value observes nothing.
type observer struct {
	// probe, when not nil, is wired to the hierarchy at the warmup
	// boundary.
	probe probe.Probe
	// interval, when window is positive, receives a snapshot (cumulative
	// over the measured region) every window measured accesses.
	window   uint64
	interval func(probe.IntervalEvent)
}

// runSingleCore is the one single-core simulation loop: every entry
// point that drives one core — a generated workload or a decoded trace
// (kind says which, for error messages), with or without a probe or an
// interval series — is this function with a different observer. The
// stream is read through a trace.ReadAhead, so src.Next runs on a second
// goroutine while this one simulates; the stage is joined before return.
//
// The stream ends at opt.Warmup+opt.Measure accesses or at trace end,
// whichever comes first; ending before the first measured access is an
// error.
func runSingleCore(kind, name string, src trace.Source, opt Options, obs observer) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	if opt.Hier.Cores != 1 {
		return Result{}, fmt.Errorf("sim: a single-core run needs a 1-core hierarchy, got %d", opt.Hier.Cores)
	}
	h, err := hier.New(opt.Hier)
	if err != nil {
		return Result{}, err
	}
	core, err := cpu.New(opt.CPU)
	if err != nil {
		return Result{}, err
	}
	total := opt.Warmup + opt.Measure
	ahead := trace.NewReadAhead(src, total)
	defer ahead.Close()

	var warm cpu.Stats // the core at the warmup boundary
	var lastIC uint64
	// nextWindow is the access count that closes the current interval;
	// zero (no count is) when nobody asked for intervals.
	var nextWindow uint64
	if obs.window > 0 {
		nextWindow = opt.Warmup + obs.window
	}
	winIdx := 0
	for i := uint64(0); ; i++ {
		if i == opt.Warmup {
			// The measured region starts before access i, which for
			// Warmup == 0 is the first.
			h.ResetStats()
			warm = core.Stats()
			if obs.probe != nil {
				h.SetProbe(obs.probe)
			}
		}
		if i == total {
			break
		}
		a, err := ahead.Next()
		if err == trace.ErrEnd {
			if i < opt.Warmup {
				return Result{}, fmt.Errorf("sim: %s %s ended during warmup (%d accesses)", kind, name, i)
			}
			if i == opt.Warmup {
				return Result{}, fmt.Errorf("sim: %s %s ended with no measured accesses", kind, name)
			}
			break
		}
		if err != nil {
			return Result{}, fmt.Errorf("sim: %s %s: %w", kind, name, err)
		}
		step(core, h, 0, a)
		lastIC = a.IC
		if i+1 == nextWindow {
			snap := core.Stats()
			obs.interval(probe.IntervalEvent{
				Index:         winIdx,
				EndAccess:     i + 1 - opt.Warmup,
				Instructions:  snap.Instructions - warm.Instructions,
				Cycles:        snap.Cycles - warm.Cycles,
				LLCReadMisses: h.LLC().Stats().ReadMisses(),
				DirtyTarget:   llcDirtyTarget(h),
				DirtyLines:    h.LLC().TotalDirty(),
				ValidLines:    h.LLC().TotalValid(),
			})
			winIdx++
			nextWindow += obs.window
		}
	}
	res := Result{
		Workload: name,
		Policy:   opt.Hier.LLCPolicy,
		Core:     measuredCore(core.Finish(lastIC+1), warm),
		L1:       h.L1(0).Stats(),
		L2:       h.L2(0).Stats(),
		LLC:      h.LLC().Stats(),
		DRAM:     h.DRAM().Stats(),
	}
	res.Instructions = res.Core.Instructions
	res.IPC = res.Core.IPC()
	res.ReadMPKI = stats.PerKilo(res.LLC.ReadMisses(), res.Instructions)
	res.TotalMPKI = stats.PerKilo(res.LLC.TotalMisses(), res.Instructions)
	res.WBPKI = stats.PerKilo(res.DRAM.Writes, res.Instructions)
	return res, nil
}

// measuredCore returns the core's measured-region counters: final minus
// the snapshot taken at the warmup boundary.
func measuredCore(final, warm cpu.Stats) cpu.Stats {
	return cpu.Stats{
		Instructions: final.Instructions - warm.Instructions,
		Cycles:       final.Cycles - warm.Cycles,
		Loads:        final.Loads - warm.Loads,
		Stores:       final.Stores - warm.Stores,
		LoadStalls:   final.LoadStalls - warm.LoadStalls,
		StoreStalls:  final.StoreStalls - warm.StoreStalls,
	}
}

// step feeds one access through the core and hierarchy in the canonical
// order: advance issue to the access's IC, query the hierarchy at the
// issue cycle, then charge the core.
func step(core *cpu.Core, h *hier.Hierarchy, coreID int, a mem.Access) {
	core.AdvanceTo(a.IC)
	now := core.Now()
	if a.Kind.IsRead() {
		lat := h.Load(coreID, now, a.Addr, a.PC)
		core.Load(a.IC, lat)
	} else {
		lat := h.Store(coreID, now, a.Addr, a.PC)
		core.Store(a.IC, lat)
	}
}

// MultiResult summarizes a multiprogrammed run.
type MultiResult struct {
	Policy string
	// PerCore holds each core's measured-region result, in mix order.
	PerCore []Result
	// IPCs is the per-core IPC vector (convenience copy).
	IPCs []float64
}

// Throughput is Σ per-core IPC.
func (m MultiResult) Throughput() float64 { return stats.Throughput(m.IPCs) }

// RunMulti executes one workload per core on a shared-LLC system. Cores
// advance in lockstep by simulated time (the core with the smallest local
// clock issues next), which is how trace-driven CMP studies interleave
// independent streams. Cores that finish their measured quota keep
// running — still generating interference — until every core has
// finished; their extra work is not counted.
func RunMulti(profs []workload.Profile, opt Options) (MultiResult, error) {
	return runMulti(profs, opt, nil)
}

// RunMultiProbe is RunMulti with an attached probe. The probe is wired
// to the shared LLC once every core has finished warming, so its events
// cover the same region as the measured LLC deltas; IntervalEnd fires
// every p.Window() globally measured accesses with instruction and cycle
// counts summed over cores.
func RunMultiProbe(profs []workload.Profile, opt Options, p probe.Probe) (MultiResult, error) {
	return runMulti(profs, opt, p)
}

func runMulti(profs []workload.Profile, opt Options, p probe.Probe) (MultiResult, error) {
	n := len(profs)
	if n == 0 {
		return MultiResult{}, fmt.Errorf("sim: empty mix")
	}
	if opt.Hier.Cores != n {
		return MultiResult{}, fmt.Errorf("sim: hierarchy has %d cores for a %d-workload mix", opt.Hier.Cores, n)
	}
	if err := opt.Validate(); err != nil {
		return MultiResult{}, err
	}
	h, err := hier.New(opt.Hier)
	if err != nil {
		return MultiResult{}, err
	}

	type coreState struct {
		core       *cpu.Core
		src        *trace.ReadAhead
		done       uint64 // accesses completed
		lastIC     uint64
		warm       cpu.Stats // the core at its warmup boundary
		l1Snap     cache.Stats
		l2Snap     cache.Stats
		llcRMWarm  uint64 // per-core LLC read misses at warmup end
		llcRMFinal uint64 // captured when the core's counted region ends
	}
	states := make([]*coreState, n)
	for i := range profs {
		c, err := cpu.New(opt.CPU)
		if err != nil {
			return MultiResult{}, err
		}
		states[i] = &coreState{core: c}
	}
	// One read-ahead stage per core, each bounded by that core's quota
	// and joined before return.
	total := opt.Warmup + opt.Measure
	for i, p := range profs {
		states[i].src = trace.NewReadAhead(p.NewSource(), total)
		defer states[i].src.Close()
	}
	llcWarm := cache.Stats{}
	warmDone := 0
	var window uint64
	if p != nil {
		window = p.Window()
	}
	if p != nil && opt.Warmup == 0 {
		warmDone = n
		h.SetProbe(p)
	}
	var measured uint64
	var winIdx int

	finished := 0
	for finished < n {
		// Pick the least-advanced core still under quota; finished cores
		// continue only while any counted core lags them (interference).
		best := -1
		var bestCycle uint64
		for i, st := range states {
			if st.done >= total {
				continue
			}
			if best == -1 || st.core.Now() < bestCycle {
				best, bestCycle = i, st.core.Now()
			}
		}
		if best == -1 {
			break
		}
		st := states[best]
		a, err := st.src.Next()
		if err != nil {
			return MultiResult{}, fmt.Errorf("sim: workload %s: %w", profs[best].Name, err)
		}
		step(st.core, h, best, a)
		st.lastIC = a.IC
		st.done++
		if st.done == opt.Warmup {
			st.warm = st.core.Stats()
			st.l1Snap = h.L1(best).Stats()
			st.l2Snap = h.L2(best).Stats()
			st.llcRMWarm = h.LLCReadMisses(best)
			warmDone++
			if warmDone == n {
				llcWarm = h.LLC().Stats()
				h.DRAM().ResetStats()
				if p != nil {
					h.SetProbe(p)
				}
			}
		}
		if p != nil && window > 0 && warmDone == n && st.done > opt.Warmup {
			measured++
			if measured%window == 0 {
				var insts, cycles uint64
				for _, s2 := range states {
					snap := s2.core.Stats()
					insts += snap.Instructions - s2.warm.Instructions
					cycles += snap.Cycles - s2.warm.Cycles
				}
				p.IntervalEnd(probe.IntervalEvent{
					Index:         winIdx,
					EndAccess:     measured,
					Instructions:  insts,
					Cycles:        cycles,
					LLCReadMisses: h.LLC().Stats().ReadMisses() - llcWarm.ReadMisses(),
					DirtyTarget:   llcDirtyTarget(h),
					DirtyLines:    h.LLC().TotalDirty(),
					ValidLines:    h.LLC().TotalValid(),
				})
				winIdx++
			}
		}
		if st.done == total {
			st.llcRMFinal = h.LLCReadMisses(best)
			finished++
		}
	}

	res := MultiResult{Policy: opt.Hier.LLCPolicy}
	llcEnd := h.LLC().Stats()
	llcMeasured := subStats(llcEnd, llcWarm)
	for i, st := range states {
		r := Result{
			Workload: profs[i].Name,
			Policy:   opt.Hier.LLCPolicy,
			Core:     measuredCore(st.core.Finish(st.lastIC+1), st.warm),
			L1:       subStats(h.L1(i).Stats(), st.l1Snap),
			L2:       subStats(h.L2(i).Stats(), st.l2Snap),
			LLC:      llcMeasured,
			DRAM:     h.DRAM().Stats(),
		}
		r.Instructions = r.Core.Instructions
		r.IPC = r.Core.IPC()
		r.ReadMPKI = stats.PerKilo(st.llcRMFinal-st.llcRMWarm, r.Instructions)
		res.PerCore = append(res.PerCore, r)
		res.IPCs = append(res.IPCs, r.IPC)
	}
	return res, nil
}

// subStats returns a-b fieldwise (measured-region deltas).
func subStats(a, b cache.Stats) cache.Stats {
	var out cache.Stats
	for i := 0; i < 3; i++ {
		out.Accesses[i] = a.Accesses[i] - b.Accesses[i]
		out.Hits[i] = a.Hits[i] - b.Hits[i]
		out.Misses[i] = a.Misses[i] - b.Misses[i]
		out.Bypasses[i] = a.Bypasses[i] - b.Bypasses[i]
		out.HitsDirty[i] = a.HitsDirty[i] - b.HitsDirty[i]
		out.FillsDirty[i] = a.FillsDirty[i] - b.FillsDirty[i]
	}
	out.Fills = a.Fills - b.Fills
	out.Evictions = a.Evictions - b.Evictions
	out.DirtyEvict = a.DirtyEvict - b.DirtyEvict
	return out
}
