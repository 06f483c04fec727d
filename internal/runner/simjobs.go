package runner

import (
	"strings"

	"rwp/internal/probe"
	"rwp/internal/sim"
	"rwp/internal/workload"
)

// The standard job kinds: single- and multi-core simulations, keyed by
// the full sim.Options plus the benchmark name(s). Everything the
// simulator's behavior depends on is in the Options struct (the
// determinism contract machine-checked by rwplint), so the key is a
// complete content address for the result.

// singlePayload is the hashed identity of a single-core run.
type singlePayload struct {
	Bench   string
	Options sim.Options
}

// multiPayload is the hashed identity of a multiprogrammed run.
type multiPayload struct {
	Benches []string
	Options sim.Options
}

// Single submits one single-core simulation.
func (e *Engine) Single(bench string, opt sim.Options) *Future[sim.Result] {
	key, err := NewKey("single", bench+"/"+opt.Hier.LLCPolicy, singlePayload{Bench: bench, Options: opt})
	if err != nil {
		return Failed[sim.Result](err)
	}
	return Submit(e, key, func() (sim.Result, error) {
		prof, err := workload.Get(bench)
		if err != nil {
			return sim.Result{}, err
		}
		if e.metricsDir == "" {
			return sim.RunSingle(prof, opt)
		}
		rec := probe.NewRecorder(e.probeWindow)
		res, err := sim.RunSingleProbe(prof, opt, rec)
		if err != nil {
			return res, err
		}
		e.writeJournal(key, []sim.Result{res}, rec)
		return res, nil
	})
}

// Multi submits one multiprogrammed shared-LLC simulation (one workload
// per core, in mix order).
func (e *Engine) Multi(benches []string, opt sim.Options) *Future[sim.MultiResult] {
	desc := strings.Join(benches, "+") + "/" + opt.Hier.LLCPolicy
	key, err := NewKey("multi", desc, multiPayload{Benches: benches, Options: opt})
	if err != nil {
		return Failed[sim.MultiResult](err)
	}
	return Submit(e, key, func() (sim.MultiResult, error) {
		profs := make([]workload.Profile, len(benches))
		for i, b := range benches {
			p, err := workload.Get(b)
			if err != nil {
				return sim.MultiResult{}, err
			}
			profs[i] = p
		}
		if e.metricsDir == "" {
			return sim.RunMulti(profs, opt)
		}
		rec := probe.NewRecorder(e.probeWindow)
		res, err := sim.RunMultiProbe(profs, opt, rec)
		if err != nil {
			return res, err
		}
		e.writeJournal(key, res.PerCore, rec)
		return res, nil
	})
}
