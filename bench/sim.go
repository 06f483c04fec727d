package main

import (
	"fmt"
	"math"
	"time"

	"rwp"
)

// sim_llc: the paper's own artefact. A round is the same eight
// simulator jobs every time (four profiles under lru and rwp); the
// "operation" is one simulated access and the latency request is one
// job. The simulator is deterministic, so every round must reproduce
// the warm rounds' results bit for bit.

var (
	simProfiles = [4]string{"mcf", "gcc", "dealII", "soplex"}
	simPolicies = [2]string{"lru", "rwp"}
)

const simJobs = len(simProfiles) * len(simPolicies)

// simRec is sim_llc's part of a leg.
type simRec struct {
	ref   [simJobs]rwp.Result // job i: profile i/2 under policy i%2
	jobMs [2][]float64        // per policy, every timed job's wall time
}

func simJob(i int, o runOpts) (rwp.Result, error) {
	return rwp.Run(simProfiles[i/2], rwp.Config{
		Policy: simPolicies[i%2], Warmup: o.simWarmup, Measure: o.simMeasure, Seed: o.seed,
	})
}

// runSim measures one leg of sim_llc; tr, when not nil, records one
// span per timed job.
func runSim(o runOpts, ref *hostRef, tr *tracer) (*leg, error) {
	lg := &leg{spinBefore: float64(ref.alu()), sim: &simRec{}}
	jobOps := int(o.simWarmup + o.simMeasure)
	seen := false
	for i := 0; i < o.setups; i++ {
		clock := startSetup(ref)
		for w := 0; w < o.spec.warmChunks; w++ {
			for j := 0; j < simJobs; j++ {
				t0 := time.Now()
				res, err := simJob(j, o)
				clock.reading(time.Since(t0))
				if err != nil {
					return nil, err
				}
				if seen && res != lg.sim.ref[j] && lg.lawErr == nil {
					lg.lawErr = fmt.Errorf("warm pass: job %s/%s is not deterministic", res.Workload, res.Policy)
				}
				lg.sim.ref[j] = res
			}
			seen = true
		}
		lg.setupS = append(lg.setupS, clock.seconds())
	}
	for j, res := range lg.sim.ref {
		if err := conserved(res, o.simMeasure); err != nil && lg.lawErr == nil {
			lg.lawErr = fmt.Errorf("job %d: %w", j, err)
		}
	}

	if tr != nil {
		tr.arm()
	}
	phase := time.Now()
	var sec section
	var sum usage
	var last time.Duration // the previous job's wall time
	lat := make([]int64, 0, o.spec.roundChunks*simJobs)
	for r := 0; o.more(r, phase); r++ {
		var rec roundRec
		lat = lat[:0]
		for c := 0; c < o.spec.roundChunks; c++ {
			for j := 0; j < simJobs; j++ {
				ref.sample(&rec.ref, last)
				sec.begin()
				tr.begin(spSimJob, int64(len(lg.sim.jobMs[j%2])*2+j%2), true)
				res, err := simJob(j, o)
				tr.end()
				u := sec.end(jobOps)
				if err != nil {
					return nil, err
				}
				rec.add(u)
				last = u.wall
				lat = append(lat, int64(u.wall))
				lg.sim.jobMs[j%2] = append(lg.sim.jobMs[j%2], float64(u.wall.Nanoseconds())/1e6)
				if res != lg.sim.ref[j] {
					lg.failed += jobOps
				}
			}
		}
		ref.sample(&rec.ref, last)
		rec.finish(lat)
		lg.rounds = append(lg.rounds, rec)
		sum.add(rec.usage)
		if r+1 == o.exactAt() {
			lg.exact = lg.sim.exact(o)
			lg.exact.use = sum
			lg.exact.heapMB = heapMB()
		}
	}
	if tr != nil {
		tr.disarm()
	}
	lg.attempted = sum.ops
	lg.audit = lg.sim.audit()
	lg.spinAfter = float64(ref.alu())
	return lg, nil
}

// conserved checks that a result's rates are made of whole events: the
// LLC read misses behind ReadMPKI and the demand loads behind the hit
// rate are integers, and misses do not exceed loads nor loads the
// accesses simulated.
func conserved(r rwp.Result, measure uint64) error {
	misses := r.ReadMPKI * float64(r.Instructions) / 1000
	if math.Abs(misses-math.Round(misses)) > 1e-6*math.Max(1, misses) {
		return fmt.Errorf("%s/%s: ReadMPKI x instructions = %v read misses, not a whole number", r.Workload, r.Policy, misses)
	}
	if r.LLCReadHitRate < 0 || r.LLCReadHitRate > 1 {
		return fmt.Errorf("%s/%s: read-hit rate %v outside [0,1]", r.Workload, r.Policy, r.LLCReadHitRate)
	}
	if r.LLCReadHitRate < 1 {
		loads := misses / (1 - r.LLCReadHitRate)
		if math.Abs(loads-math.Round(loads)) > 1e-6*math.Max(1, loads) || loads > float64(measure)+0.5 {
			return fmt.Errorf("%s/%s: hits+misses = %v demand loads of %d accesses", r.Workload, r.Policy, loads, measure)
		}
	}
	if r.Cycles == 0 || r.Instructions == 0 {
		return fmt.Errorf("%s/%s: empty measured region", r.Workload, r.Policy)
	}
	return nil
}

// exact derives sim_llc's counted metrics from the rwp jobs.
func (s *simRec) exact(o runOpts) exactRec {
	var hit, misses, cycles float64
	for j := 1; j < simJobs; j += 2 {
		r := s.ref[j]
		hit += r.LLCReadHitRate
		misses += r.ReadMPKI * float64(r.Instructions) / 1000
		cycles += float64(r.Cycles)
	}
	accesses := float64(len(simProfiles)) * float64(o.simMeasure)
	return exactRec{
		readHitRate: hit / float64(len(simProfiles)),
		loadsPerKop: misses / accesses * 1000,
		modelCost:   cycles / accesses,
	}
}

// speedup is IPC under rwp over IPC under lru for profile p.
func (s *simRec) speedup(p int) float64 { return s.ref[2*p+1].IPC / s.ref[2*p].IPC }

// audit is the paper's headline on these four profiles: the geomean
// IPC ratio, and the mean read-hit ratio beside it.
func (s *simRec) audit() auditRec {
	var sp, hr []float64
	for p := range simProfiles {
		sp = append(sp, s.speedup(p))
		if l := s.ref[2*p].LLCReadHitRate; l > 0 {
			hr = append(hr, s.ref[2*p+1].LLCReadHitRate/l)
		}
	}
	a := auditRec{costSpeedup: geomean(sp)}
	if len(hr) > 0 {
		a.hitRatio = geomean(hr)
	}
	return a
}
