// Package sim drives workloads through the core timing model and the
// memory hierarchy. One loop serves the paper's per-benchmark figures
// and its shared-LLC experiments: a single-core run is a one-core mix,
// and a multi-core run interleaves one stream per core.
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
	// the measured region starts.
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

// RunSingle executes one workload on a single-core system: the
// one-core case of RunMulti.
func RunSingle(prof workload.Profile, opt Options) (Result, error) {
	return runOne(stream{"workload", prof.Name, prof.NewSource()}, opt, observer{})
}

// RunSingleProbe is RunSingle with an attached probe. The probe is wired
// to the hierarchy at the warmup boundary, so the policy events it
// receives cover exactly the measured region (like Result's stats);
// every p.Window() measured accesses it additionally receives an
// IntervalEnd snapshot. Attaching a probe never changes the Result — the probe only
// observes (enforced by probe_test.go).
func RunSingleProbe(prof workload.Profile, opt Options, p probe.Probe) (Result, error) {
	return runOne(stream{"workload", prof.Name, prof.NewSource()}, opt, probeObserver(p))
}

// observer is what an entry point may hang on the simulation loop; the
// zero value observes nothing.
type observer struct {
	// probe, when not nil, is wired to the hierarchy once every core is
	// warm.
	probe probe.Probe
	// interval, when window is positive, receives a snapshot (cumulative
	// over the measured region) every window measured accesses.
	window   uint64
	interval func(probe.IntervalEvent)
}

// probeObserver hangs p, and its interval series, on the loop.
func probeObserver(p probe.Probe) observer {
	var obs observer
	if p != nil {
		obs = observer{probe: p, window: p.Window(), interval: p.IntervalEnd}
	}
	return obs
}

// stream is one core's access stream; kind ("workload" or "trace") and
// name label it in errors.
type stream struct {
	kind, name string
	src        trace.Source
}

// runOne runs s on a single-core system and returns its core's Result.
func runOne(s stream, opt Options, obs observer) (Result, error) {
	mr, err := run([]stream{s}, opt, obs)
	if err != nil {
		return Result{}, err
	}
	return mr.PerCore[0], nil
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
// independent streams. A core that finishes its Warmup+Measure quota
// stops issuing; the cores still running finish without its
// interference.
func RunMulti(profs []workload.Profile, opt Options) (MultiResult, error) {
	return RunMultiProbe(profs, opt, nil)
}

// RunMultiProbe is RunMulti with an attached probe. The probe is wired
// to the shared LLC once every core has finished warming, so its events
// cover the same region as the measured LLC deltas; IntervalEnd fires
// every p.Window() globally measured accesses with instruction and cycle
// counts summed over cores.
func RunMultiProbe(profs []workload.Profile, opt Options, p probe.Probe) (MultiResult, error) {
	streams := make([]stream, len(profs))
	for i, prof := range profs {
		streams[i] = stream{kind: "workload", name: prof.Name, src: prof.NewSource()}
	}
	return run(streams, opt, probeObserver(p))
}

// run is the one simulation loop: every entry point, one core or many,
// a generated workload or a decoded trace, with or without a probe or an
// interval series, is this function with different streams and a
// different observer. Each stream is read through a trace.ReadAhead, so
// its Next runs on another goroutine while this one simulates; the
// stages are joined before return.
//
// A core's counted region ends when its stream does: the read-ahead
// stage ends every stream at Warmup+Measure accesses, and a source may
// end it sooner. A stream that ends before the core's first measured
// access is an error; a core whose stream has ended stops issuing. Each core's measured region
// is its counters minus a snapshot taken at its own warmup boundary;
// the shared LLC and DRAM are measured from the moment every core is
// warm, which for Warmup == 0 is before the first access.
func run(streams []stream, opt Options, obs observer) (MultiResult, error) {
	n := len(streams)
	if n == 0 {
		return MultiResult{}, fmt.Errorf("sim: empty mix")
	}
	if opt.Hier.Cores != n {
		return MultiResult{}, fmt.Errorf("sim: hierarchy has %d cores, run has %d streams", opt.Hier.Cores, n)
	}
	if err := opt.Validate(); err != nil {
		return MultiResult{}, err
	}
	h, err := hier.New(opt.Hier)
	if err != nil {
		return MultiResult{}, err
	}

	type coreState struct {
		core      *cpu.Core
		src       *trace.ReadAhead
		done      uint64 // accesses completed
		lastIC    uint64
		warm      cpu.Stats // the core at its warmup boundary
		l1Snap    cache.Stats
		l2Snap    cache.Stats
		llcRMWarm uint64 // per-core LLC read misses at warmup end
		ended     bool   // the stream has ended
	}
	states := make([]coreState, n)
	for i := range states {
		if states[i].core, err = cpu.New(opt.CPU); err != nil {
			return MultiResult{}, err
		}
	}
	// One read-ahead stage per core, each bounded by that core's quota
	// and joined before return.
	for i, s := range streams {
		states[i].src = trace.NewReadAhead(s.src, opt.Warmup+opt.Measure)
		defer states[i].src.Close()
	}
	// Once every core is warm the shared levels start counting.
	var llcWarm cache.Stats
	warmDone := 0
	allWarm := func() {
		llcWarm = h.LLC().Stats()
		h.DRAM().ResetStats()
		if obs.probe != nil {
			h.SetProbe(obs.probe)
		}
	}
	if opt.Warmup == 0 {
		warmDone = n
		allWarm()
	}
	// measured counts accesses since every core was warm; nextWindow is
	// the count that closes the current interval, zero (no count is)
	// when nobody asked for intervals.
	var measured, nextWindow uint64
	if obs.window > 0 {
		nextWindow = obs.window
	}
	winIdx := 0

	for running := n; running > 0; {
		// Pick the least-advanced core still counting. With one core
		// there is nothing to choose.
		best := 0
		if n > 1 {
			best = -1
			var bestCycle uint64
			for i := range states {
				st := &states[i]
				if st.ended {
					continue
				}
				if best == -1 || st.core.Now() < bestCycle {
					best, bestCycle = i, st.core.Now()
				}
			}
		}
		st := &states[best]
		a, err := st.src.Next()
		if err != nil {
			s := streams[best]
			switch {
			case err != trace.ErrEnd:
				return MultiResult{}, fmt.Errorf("sim: %s %s: %w", s.kind, s.name, err)
			case st.done < opt.Warmup:
				return MultiResult{}, fmt.Errorf("sim: %s %s ended during warmup (%d accesses)", s.kind, s.name, st.done)
			case st.done == opt.Warmup:
				return MultiResult{}, fmt.Errorf("sim: %s %s ended with no measured accesses", s.kind, s.name)
			}
			st.ended = true
			running--
			continue
		}
		step(st.core, h, best, a)
		st.lastIC = a.IC
		st.done++
		if st.done == opt.Warmup {
			st.warm = st.core.Stats()
			st.l1Snap = h.L1(best).Stats()
			st.l2Snap = h.L2(best).Stats()
			st.llcRMWarm = h.LLCReadMisses(best)
			if warmDone++; warmDone == n {
				allWarm()
			}
		}
		if nextWindow > 0 && warmDone == n && st.done > opt.Warmup {
			if measured++; measured == nextWindow {
				var insts, cycles uint64
				for i := range states {
					snap := states[i].core.Stats()
					insts += snap.Instructions - states[i].warm.Instructions
					cycles += snap.Cycles - states[i].warm.Cycles
				}
				obs.interval(probe.IntervalEvent{
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
				nextWindow += obs.window
			}
		}
	}

	res := MultiResult{Policy: opt.Hier.LLCPolicy}
	llcMeasured := subStats(h.LLC().Stats(), llcWarm)
	for i := range states {
		st := &states[i]
		r := Result{
			Workload: streams[i].name,
			Policy:   opt.Hier.LLCPolicy,
			Core:     measuredCore(st.core.Finish(st.lastIC+1), st.warm),
			L1:       subStats(h.L1(i).Stats(), st.l1Snap),
			L2:       subStats(h.L2(i).Stats(), st.l2Snap),
			LLC:      llcMeasured,
			DRAM:     h.DRAM().Stats(),
		}
		r.Instructions = r.Core.Instructions
		r.IPC = r.Core.IPC()
		// A core's LLC read misses move only on its own loads, so they
		// stopped when its counted region ended.
		r.ReadMPKI = stats.PerKilo(h.LLCReadMisses(i)-st.llcRMWarm, r.Instructions)
		if n == 1 {
			// A shared LLC's misses and a shared channel's writes are
			// not one core's.
			r.TotalMPKI = stats.PerKilo(r.LLC.TotalMisses(), r.Instructions)
			r.WBPKI = stats.PerKilo(r.DRAM.Writes, r.Instructions)
		}
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
