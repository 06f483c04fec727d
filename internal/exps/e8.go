package exps

import (
	"fmt"
	"strings"

	"rwp/internal/core"
	"rwp/internal/hier"
	"rwp/internal/probe"
	"rwp/internal/report"
	"rwp/internal/runner"
	"rwp/internal/workload"
)

// E8 — partition dynamics: the dirty-partition target must adapt to
// program phases. A two-phase composite runs a dirty-read-heavy phase
// (producer-consumer dominant) followed by a clean-read phase (pointer
// chase + write-once); the recorded per-interval targets should be
// high in phase one and collapse in phase two.

// E8Result is the experiment outcome.
type E8Result struct {
	// History is the dirty-target trajectory across both phases.
	History []int
	// Phase1Mean and Phase2Mean average the targets within each phase.
	Phase1Mean float64
	Phase2Mean float64
	// PerBench[bench] is the mean steady-state target per benchmark.
	PerBench map[string]float64
	// BenchOrder preserves display order for PerBench.
	BenchOrder []string
}

// e8Feed pushes n accesses from src into h on core 0.
func e8Feed(h *hier.Hierarchy, src *workload.Source, n uint64, now *uint64) error {
	for i := uint64(0); i < n; i++ {
		a, err := src.Next()
		if err != nil {
			return err
		}
		if a.Kind.IsRead() {
			h.Load(0, *now, a.Addr, a.PC)
		} else {
			h.Store(0, *now, a.Addr, a.PC)
		}
		*now++
	}
	return nil
}

// e8FeedOut is one feed job's recorded predictor behavior (the cached
// result type of the "e8feed" job kind).
type e8FeedOut struct {
	// History is the dirty-target trajectory across all phases.
	History []int
	// Cut is the history length after the first phase.
	Cut int
	// Target is the final dirty target (for runs too short to record
	// any interval).
	Target int
}

// planE8Feed enqueues one feed job: each named profile is streamed n
// accesses, in order, through one fresh RWP hierarchy.
func (s *Suite) planE8Feed(cfg hier.Config, phases []string, n uint64) *runner.Future[e8FeedOut] {
	key, err := runner.NewKey("e8feed", strings.Join(phases, "+"), struct {
		Phases []string
		N      uint64
		Cfg    hier.Config
	}{phases, n, cfg})
	if err != nil {
		return runner.Failed[e8FeedOut](err)
	}
	return runner.Submit(s.Eng, key, func() (e8FeedOut, error) {
		h, err := hier.New(cfg)
		if err != nil {
			return e8FeedOut{}, err
		}
		rwp, ok := h.LLC().Policy().(*core.RWP)
		if !ok {
			return e8FeedOut{}, fmt.Errorf("exps: LLC policy is not RWP")
		}
		// The trajectory is the policy's Retarget event stream; the
		// recorder is wired to the policy alone, so the LLC's per-access
		// events stay off.
		rec := probe.NewRecorder(0)
		rwp.SetProbe(rec)
		var out e8FeedOut
		now := uint64(0)
		for i, name := range phases {
			prof, err := workload.Get(name)
			if err != nil {
				return e8FeedOut{}, err
			}
			if err := e8Feed(h, prof.NewSource(), n, &now); err != nil {
				return e8FeedOut{}, err
			}
			if i == 0 {
				out.Cut = len(rec.Retargets)
			}
		}
		for _, ev := range rec.Retargets {
			out.History = append(out.History, ev.Target)
		}
		out.Target = rwp.TargetDirty()
		return out, nil
	})
}

// E8 runs the dynamics experiment.
func (s *Suite) E8() (*report.Table, E8Result, error) {
	res := E8Result{PerBench: make(map[string]float64)}

	// Plan: the two-phase composite plus every per-benchmark feed.
	cfg := hier.DefaultConfig()
	cfg.LLCPolicy = "rwp"
	composite := s.planE8Feed(cfg, []string{"cactusADM", "mcf"}, s.Scale.E8Phase)
	res.BenchOrder = []string{"cactusADM", "GemsFDTD", "mcf", "sphinx3", "lbm", "povray"}
	perBench := make([]*runner.Future[e8FeedOut], len(res.BenchOrder))
	for i, bench := range res.BenchOrder {
		perBench[i] = s.planE8Feed(cfg, []string{bench}, s.Scale.E8Phase)
	}

	// Collect: composite phase means first.
	comp, err := composite.Wait()
	if err != nil {
		return nil, res, err
	}
	res.History = comp.History
	cut := comp.Cut
	if cut == 0 || cut >= len(res.History) {
		return nil, res, fmt.Errorf("exps: E8 needs intervals in both phases (cut=%d, total=%d); increase E8Phase", cut, len(res.History))
	}
	for i, d := range res.History {
		if i < cut {
			res.Phase1Mean += float64(d)
		} else {
			res.Phase2Mean += float64(d)
		}
	}
	res.Phase1Mean /= float64(cut)
	res.Phase2Mean /= float64(len(res.History) - cut)

	// Per-benchmark steady-state targets for representative profiles.
	for i, bench := range res.BenchOrder {
		out, err := perBench[i].Wait()
		if err != nil {
			return nil, res, err
		}
		if len(out.History) == 0 {
			res.PerBench[bench] = float64(out.Target)
			continue
		}
		// Mean over the second half (steady state).
		sum, cnt := 0.0, 0
		for _, d := range out.History[len(out.History)/2:] {
			sum += float64(d)
			cnt++
		}
		res.PerBench[bench] = sum / float64(cnt)
	}

	t := report.New("E8: dirty-partition target dynamics (16-way LLC)",
		"scenario", "mean dirty ways")
	t.AddRow("phase 1 (cactusADM: dirty lines serve reads)", report.F(res.Phase1Mean, 2))
	t.AddRow("phase 2 (mcf: clean reads + write-once)", report.F(res.Phase2Mean, 2))
	t.AddRule()
	for _, b := range res.BenchOrder {
		t.AddRow("steady state: "+b, report.F(res.PerBench[b], 2))
	}
	t.Note = "the predictor grows the dirty partition only when dirty lines serve reads"
	return t, res, nil
}
