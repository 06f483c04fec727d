package probe

// DefaultWindow is the interval width (in measured accesses) used by
// the experiment engine's journals: 100k accesses matches RWP's default
// repartitioning interval, so each sample spans roughly one predictor
// decision.
const DefaultWindow = 100_000

// PolicyCount is one (policy, kind) decision counter plus the last
// observed value.
type PolicyCount struct {
	Policy string
	Kind   string
	Count  uint64
	Last   int64
}

// Recorder is the concrete Probe: it keeps the retarget history, the
// policy counters and the per-interval samples. A Recorder observes
// exactly one run and is not safe for concurrent use (the simulator is
// single-goroutine per run; the parallel engine attaches one Recorder
// per job).
type Recorder struct {
	window uint64

	// Retargets is the predictor's decision history in emission order.
	Retargets []RetargetEvent

	// PolicyCounts aggregates policy-internal decisions. The slice is
	// small (a handful of distinct policy/kind pairs) and append-ordered
	// by first emission, which is deterministic for a deterministic run.
	PolicyCounts []PolicyCount

	// Intervals is the per-window time series in emission order.
	Intervals []IntervalEvent
}

// NewRecorder returns a Recorder sampling every window measured
// accesses; window 0 selects DefaultWindow.
func NewRecorder(window uint64) *Recorder {
	if window == 0 {
		window = DefaultWindow
	}
	return &Recorder{window: window}
}

// Window implements Probe.
func (r *Recorder) Window() uint64 { return r.window }

// Retarget implements Probe.
func (r *Recorder) Retarget(ev RetargetEvent) {
	r.Retargets = append(r.Retargets, ev)
}

// Policy implements Probe.
func (r *Recorder) Policy(ev PolicyEvent) {
	for i := range r.PolicyCounts {
		pc := &r.PolicyCounts[i]
		if pc.Policy == ev.Policy && pc.Kind == ev.Kind {
			pc.Count++
			pc.Last = ev.Value
			return
		}
	}
	r.PolicyCounts = append(r.PolicyCounts, PolicyCount{
		Policy: ev.Policy, Kind: ev.Kind, Count: 1, Last: ev.Value,
	})
}

// IntervalEnd implements Probe.
func (r *Recorder) IntervalEnd(ev IntervalEvent) {
	r.Intervals = append(r.Intervals, ev)
}

// FinalTarget returns the last retarget decision, or -1 when the
// predictor never fired (non-RWP policies, short runs).
func (r *Recorder) FinalTarget() int {
	if len(r.Retargets) == 0 {
		return -1
	}
	return r.Retargets[len(r.Retargets)-1].Target
}
