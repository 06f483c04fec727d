package sim

import (
	"fmt"

	"rwp/internal/core"
	"rwp/internal/hier"
	"rwp/internal/probe"
	"rwp/internal/stats"
	"rwp/internal/trace"
)

// llcDirtyTarget returns RWP's dirty-partition target at the LLC, or -1
// when the LLC policy is not RWP-based.
func llcDirtyTarget(h *hier.Hierarchy) int {
	switch p := h.LLC().Policy().(type) {
	case *core.RWP:
		return p.TargetDirty()
	case *core.RWPB:
		return p.TargetDirty()
	default:
		return -1
	}
}

// Interval is one measurement window of a time-series run.
type Interval struct {
	// EndAccess is the access count (from measurement start) at the
	// window's end.
	EndAccess uint64
	// IPC over the window.
	IPC float64
	// ReadMPKI over the window.
	ReadMPKI float64
	// DirtyTarget is RWP's dirty-partition target at the window's end,
	// or -1 when the LLC policy is not RWP-based.
	DirtyTarget int
}

// RunSourceIntervals is RunSource with a per-window time series: every
// `window` measured accesses it records IPC, read MPKI and (for RWP) the
// dirty-partition target. window must be positive.
func RunSourceIntervals(name string, src trace.Source, opt Options, window uint64) (Result, []Interval, error) {
	if window == 0 {
		return Result{}, nil, fmt.Errorf("sim: interval window must be positive")
	}
	var series []Interval
	var prev probe.IntervalEvent // cumulative counts at the previous window's end
	res, err := runOne(stream{"trace", name, src}, opt, observer{window: window, interval: func(ev probe.IntervalEvent) {
		insts, cycles := ev.Instructions-prev.Instructions, ev.Cycles-prev.Cycles
		iv := Interval{EndAccess: ev.EndAccess, DirtyTarget: ev.DirtyTarget}
		if cycles > 0 {
			iv.IPC = float64(insts) / float64(cycles)
		}
		iv.ReadMPKI = stats.PerKilo(ev.LLCReadMisses-prev.LLCReadMisses, insts)
		series = append(series, iv)
		prev = ev
	}})
	if err != nil {
		return Result{}, nil, err
	}
	return res, series, nil
}
