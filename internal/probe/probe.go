// Package probe is the simulator's deterministic instrumentation layer.
//
// A Probe receives typed events from the replacement policies (RWP's
// predictor retargeting the dirty-partition size, RRP's bypass
// verdicts, set-dueling leader flips) and from the simulation driver
// (interval boundaries with occupancy snapshots). The concrete
// Recorder keeps them as a retarget history, policy counters and a
// per-interval time series, and journal.go serializes a Recorder,
// after each core's result, as a canonical JSONL "run journal" that
// cmd/rwpstat can load and render. The caches emit no events: what they
// count is cache.Stats, which travels inside each core's result.
//
// Two guarantees, both enforced by tier-1 tests:
//
//   - Attaching a probe never changes a sim.Result bit: probes only
//     observe — no event handler feeds back into the mechanism under
//     test (internal/sim/probe_test.go).
//   - A nil probe costs nothing on the hot path: every emission site
//     is guarded by an `if p != nil` check and constructs its event
//     struct only inside the guard, so the disabled path is a single
//     predictable branch and allocation-free. Each emitting package's
//     tests run it with a nil probe, so an unguarded call panics there.
//
// The package deliberately imports nothing from the simulator so that
// every layer (policy, sim, runner) can emit events without import
// cycles.
package probe

// Class mirrors cache.Class (demand load, demand store, writeback)
// without importing internal/cache; the numeric values are identical.
type Class uint8

const (
	// Load is a demand load (cache.DemandLoad).
	Load Class = iota
	// Store is a demand store (cache.DemandStore).
	Store
	// WB is a writeback arriving from the level above (cache.Writeback).
	WB
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Load:
		return "load"
	case Store:
		return "store"
	case WB:
		return "writeback"
	default:
		return "class?"
	}
}

// RetargetEvent fires when RWP's predictor repartitions the cache.
type RetargetEvent struct {
	// Interval is the 1-based repartitioning count.
	Interval uint64
	// Target is the new dirty-partition size in ways.
	Target int
	// Accesses is the policy's access count at the boundary.
	Accesses uint64
}

// PolicyEvent is a policy-internal decision worth counting: RRP bypass
// verdicts, set-dueling leader flips. Policy and Kind must be constant
// strings at the emission site (no per-event formatting on the hot
// path).
type PolicyEvent struct {
	// Policy names the emitting mechanism ("rrp", "duel", ...).
	Policy string
	// Kind names the decision ("bypass", "flip", ...).
	Kind string
	// Value carries the decision's operand (a predictor counter, a
	// PSEL value).
	Value int64
}

// IntervalEvent is the simulation driver's per-window snapshot, emitted
// every Window() measured accesses after warmup.
type IntervalEvent struct {
	// Index is the 0-based interval number.
	Index int
	// EndAccess is the measured-access count at the window's end.
	EndAccess uint64
	// Instructions and Cycles are cumulative over the measured region
	// (summed over cores in multiprogrammed runs).
	Instructions uint64
	Cycles       uint64
	// LLCReadMisses is cumulative over the measured region.
	LLCReadMisses uint64
	// DirtyTarget is RWP's dirty-partition target, or -1 when the LLC
	// policy is not RWP-based.
	DirtyTarget int
	// DirtyLines and ValidLines are the LLC's current totals — the
	// *actual* partition occupancy the target is steering.
	DirtyLines int
	ValidLines int
}

// Probe receives instrumentation events. Implementations must not
// mutate any simulator state; all methods are called from the single
// simulation goroutine of one run.
type Probe interface {
	// Window returns the number of measured accesses per interval
	// sample; 0 disables IntervalEnd events.
	Window() uint64
	// Retarget fires when RWP repartitions.
	Retarget(ev RetargetEvent)
	// Policy fires on policy-internal decisions.
	Policy(ev PolicyEvent)
	// IntervalEnd fires every Window() measured accesses.
	IntervalEnd(ev IntervalEvent)
}

// Instrumentable is implemented by components that accept a probe
// (policies, hierarchies). SetProbe must be called before the
// run starts and may be called with nil to detach.
type Instrumentable interface {
	SetProbe(p Probe)
}
