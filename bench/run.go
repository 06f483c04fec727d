package main

import (
	"fmt"
	"sort"
	"time"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
)

// The run shape every workload shares: set up (build, connect, warm
// pass) a few times and keep the last; then rounds of a fixed number
// of operations, each generated chunk by chunk outside the timed
// sections; then read-outs and the laws a correct run obeys.

// runOpts is one leg's shape. Only tests use anything but defaultOpts.
type runOpts struct {
	spec    workloadSpec
	seed    uint64
	seconds float64 // length of the measuring phase
	// rounds > 0 fixes the round count (traced legs, tests); 0 runs at
	// least exactRounds and on until seconds have passed.
	rounds   int
	setups   int
	chunkOps int
	// auditWarm and auditChunks size the policy audit: that many
	// chunks of the same stream warm, then measure, one fresh lru and
	// one fresh rwp cache.
	auditWarm, auditChunks int
	// simWarmup and simMeasure are the simulator jobs' access counts.
	simWarmup, simMeasure uint64
	// microBenchtime is how long each micro-row of a traced run lasts.
	microBenchtime string
	wrap           backendWrap
}

// defaultOpts is the shape of an end-to-end run, or of each leg of a
// traced run: one set-up and traceRounds rounds.
func defaultOpts(spec workloadSpec, seed uint64, seconds float64, traced bool) runOpts {
	o := runOpts{
		spec: spec, seed: seed, seconds: seconds, setups: setups, chunkOps: chunkOps,
		auditWarm: 4, auditChunks: 12, simWarmup: 50_000, simMeasure: 200_000,
		microBenchtime: "150ms",
	}
	if traced {
		o.rounds, o.setups = traceRounds, 1
	}
	return o
}

// exactAt is the round after which the counted metrics are read.
func (o runOpts) exactAt() int {
	if o.rounds > 0 && o.rounds < exactRounds {
		return o.rounds
	}
	return exactRounds
}

// roundRec is one timed round. ref holds the reference-kernel runs
// around its sections; every time the round reports is scaled by them
// to reference-host time (see hostRef).
type roundRec struct {
	usage
	ref                refMeter
	p50, p90, p99, max float64 // request latency, us
	samples            int
}

func (r roundRec) rawRate() float64 { return float64(r.ops) / r.wall.Seconds() }

func (r roundRec) rate() float64 { return r.rawRate() / r.ref.scale() }

func (r roundRec) cpuPerOp() float64 {
	return float64(r.cpu.Nanoseconds()) / 1e3 / float64(r.ops) * r.ref.scale()
}

// finish fills the round's latency percentiles from its samples (ns).
func (r *roundRec) finish(lat []int64) {
	us := make([]float64, len(lat))
	scale := r.ref.scale()
	for i, ns := range lat {
		us[i] = float64(ns) / 1e3 * scale
	}
	sort.Float64s(us)
	r.samples = len(us)
	r.p50, r.p90, r.p99 = percentile(us, 50), percentile(us, 90), percentile(us, 99)
	if len(us) > 0 {
		r.max = us[len(us)-1]
	}
}

// exactRec holds the counted metrics, read after the first exactRounds
// rounds so they do not depend on how many more rounds the time
// allowed.
type exactRec struct {
	use         usage
	heapMB      float64
	readHitRate float64
	loadsPerKop float64
	modelCost   float64
}

// auditRec is the policy audit's outcome.
type auditRec struct {
	costSpeedup float64 // LRU mean model cost over RWP mean model cost
	hitRatio    float64 // RWP read-hit rate over LRU read-hit rate
}

// leg is everything one measured leg produced.
type leg struct {
	setupS    []float64
	rounds    []roundRec
	exact     exactRec
	attempted int
	failed    int
	lawErr    error // an end-of-run law that did not hold: the whole run fails

	phaseWall  time.Duration // the measuring phase, untimed parts included
	spinBefore float64
	spinAfter  float64

	genNs, genAllocs float64 // generator cost per operation
	audit            auditRec

	// live workloads
	final live.Stats
	// after the warm pass, read only when asked (a traced run)
	warmSnapBytes int
	warmRetargets uint64
	// sim_llc
	sim *simRec
}

// ref is the reference-kernel readings of all rounds together.
func (l *leg) ref() refMeter {
	var m refMeter
	for _, r := range l.rounds {
		m.add(r.ref)
	}
	return m
}

// timed sums the rounds' timed sections.
func (l *leg) timed() usage {
	var u usage
	for _, r := range l.rounds {
		u.add(r.usage)
	}
	return u
}

// perRound lists one per-round figure over the rounds.
func (l *leg) perRound(f func(roundRec) float64) []float64 {
	out := make([]float64, len(l.rounds))
	for i, r := range l.rounds {
		out[i] = f(r)
	}
	return out
}

// overRounds returns the median over rounds of one per-round figure.
func (l *leg) overRounds(f func(roundRec) float64) float64 { return median(l.perRound(f)) }

// more reports whether the measuring phase runs another round.
func (o runOpts) more(done int, phase time.Time) bool {
	if o.rounds > 0 {
		return done < o.rounds
	}
	return done < exactRounds || time.Since(phase).Seconds() < o.seconds
}

// liveRun is one leg of a live workload in progress: start sets it up,
// round measures one round, finish reads it out. A traced run steps two
// of them alternately.
type liveRun struct {
	o   runOpts
	ref *hostRef
	ts  *traceSet
	sys *system
	ck  *chunker
	lat []int64
	lg  *leg

	phase time.Time
	sec   section
	sum   usage
	last  time.Duration // the previous section's wall time
}

// runLive measures one leg of a live workload. The system is returned
// open so the caller can read it out further; the caller closes it.
func runLive(o runOpts, ref *hostRef) (*leg, *system, error) {
	r, err := startLive(o, ref, nil, false)
	if err != nil {
		return nil, nil, err
	}
	for r.o.more(len(r.lg.rounds), r.phase) {
		if err := r.round(); err != nil {
			r.sys.close()
			return nil, nil, err
		}
	}
	return r.finish(), r.sys, nil
}

// startLive sets the system up o.setups times, keeps the last, and
// begins the measuring phase. ts is nil for an untraced leg; readWarm
// also reads the cache's state after the warm pass.
func startLive(o runOpts, ref *hostRef, ts *traceSet, readWarm bool) (*liveRun, error) {
	r := &liveRun{o: o, ref: ref, ts: ts, lg: &leg{spinBefore: float64(ref.alu())}}
	r.lat = make([]int64, 0, o.spec.roundChunks*o.chunkOps/pipeDepth+1)
	for i := 0; i < o.setups; i++ {
		if r.sys != nil {
			if err := r.sys.close(); err != nil {
				return nil, err
			}
		}
		clock := startSetup(ref)
		src, err := newStream(o.spec.stream, o.seed)
		if err != nil {
			return nil, err
		}
		r.ck = newChunker(src, o.chunkOps)
		if r.sys, err = buildSystem(o.spec.kind, ts, o.wrap); err != nil {
			return nil, err
		}
		for c := 0; c < o.spec.warmChunks; c++ {
			ops, t0 := r.ck.next(), time.Now()
			_, bad, err := r.sys.target.apply(ops, r.lat[:0])
			clock.reading(time.Since(t0))
			if err != nil {
				r.sys.close()
				return nil, fmt.Errorf("warm pass: %w", err)
			}
			if bad > 0 && r.lg.lawErr == nil {
				r.lg.lawErr = fmt.Errorf("warm pass: %d wrong replies", bad)
			}
		}
		for j, c := range r.sys.caches {
			c.ResetStats()
			r.sys.loaders[j].calls.Store(0)
		}
		r.lg.setupS = append(r.lg.setupS, clock.seconds())
	}
	if readWarm {
		c := r.sys.caches[0]
		b, err := c.SnapBytes(0, c.Sets())
		if err != nil {
			r.sys.close()
			return nil, err
		}
		r.lg.warmSnapBytes, r.lg.warmRetargets = len(b), r.sys.stats().Retargets
	}
	if ts != nil {
		ts.arm()
	}
	r.phase = time.Now()
	return r, nil
}

// round measures one round: chunk by chunk, generation and reference
// readings outside the timed sections.
func (r *liveRun) round() error {
	var rec roundRec
	r.lat = r.lat[:0]
	for c := 0; c < r.o.spec.roundChunks; c++ {
		ops := r.ck.next()
		r.ref.sample(&rec.ref, r.last)
		r.sec.begin()
		var bad int
		var err error
		r.lat, bad, err = r.sys.target.apply(ops, r.lat)
		u := r.sec.end(len(ops))
		rec.add(u)
		r.last = u.wall
		if err != nil {
			return fmt.Errorf("round %d: %w", len(r.lg.rounds), err)
		}
		r.lg.failed += bad
	}
	r.ref.sample(&rec.ref, r.last)
	rec.finish(r.lat)
	r.lg.rounds = append(r.lg.rounds, rec)
	r.sum.add(rec.usage)
	if len(r.lg.rounds) == r.o.exactAt() {
		st := r.sys.stats()
		r.lg.exact = exactRec{
			use:         r.sum,
			readHitRate: st.ReadHitRate(),
			loadsPerKop: float64(r.sys.loaderCalls()) / float64(r.sum.ops) * 1000,
			modelCost:   meanCost(st),
		}
		// The generator's buffers are dropped for the heap reading;
		// the reference kernel's 2.5 MB stay, a constant that keeps
		// the reading of a near-empty heap (sim_llc) steady.
		r.ck.release()
		r.lg.exact.heapMB = heapMB()
	}
	return nil
}

// finish ends the measuring phase and checks the laws.
func (r *liveRun) finish() *leg {
	lg := r.lg
	lg.phaseWall = time.Since(r.phase)
	if r.ts != nil {
		r.ts.disarm()
	}
	lg.attempted = r.sum.ops
	lg.genNs = float64(r.ck.wall.Nanoseconds()) / float64(r.ck.made)
	lg.genAllocs = float64(r.ck.mallocs) / float64(r.ck.made)
	lg.final = r.sys.stats()
	if err := r.sys.checkLaws(lg.final); err != nil && lg.lawErr == nil {
		lg.lawErr = err
	}
	lg.spinAfter = float64(r.ref.alu())
	return lg
}

// stats sums the caches' statistics.
func (s *system) stats() live.Stats {
	var st live.Stats
	for _, c := range s.caches {
		st.Add(c.Stats())
	}
	return st
}

// loaderCalls sums the benchmark's own Loader counters.
func (s *system) loaderCalls() int64 {
	var n int64
	for _, l := range s.loaders {
		n += l.calls.Load()
	}
	return n
}

// checkLaws verifies what must hold on a quiescent cache after a
// single-client run, whatever the code under test did to get there.
func (s *system) checkLaws(st live.Stats) error {
	if calls, want := uint64(s.loaderCalls()), st.Loads+st.LoadRaces+st.LoadAbsents; calls != want {
		return fmt.Errorf("loader law: benchmark counted %d Loader calls, cache reports Loads+LoadRaces+LoadAbsents = %d", calls, want)
	}
	if resolved := st.Loads + st.LoadRaces + st.LoadAbsents + st.CoalescedLoads + st.NegHits + st.NegInserts; resolved != st.GetMisses {
		return fmt.Errorf("miss law: %d get misses, %d resolved over the six ways", st.GetMisses, resolved)
	}
	if st.GetHits+st.GetMisses != st.Gets || st.PutHits+st.PutInserts != st.Puts {
		return fmt.Errorf("op split law: gets %d = %d+%d, puts %d = %d+%d", st.Gets, st.GetHits, st.GetMisses, st.Puts, st.PutHits, st.PutInserts)
	}
	for i, c := range s.caches {
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("cache %d: %w", i, err)
		}
	}
	return nil
}

// meanCost is the mean modeled service cost per operation.
func meanCost(st live.Stats) float64 {
	var n, sum uint64
	for _, b := range st.CostHist.Buckets {
		n += b.Count
		sum += uint64(b.Cost) * b.Count
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// audit replays the head of the same stream, in process, into one
// fresh lru and one fresh rwp cache of the default geometry: the
// paper's ratio, measured on the live cache with the workload's own
// traffic.
func audit(o runOpts) (auditRec, error) {
	src, err := newStream(o.spec.stream, o.seed)
	if err != nil {
		return auditRec{}, err
	}
	var caches [2]*live.Cache
	for i, policy := range []string{"lru", "rwp"} {
		cfg := live.DefaultConfig()
		cfg.Policy = policy
		cfg.Loader = loadgen.Loader(valueSize)
		if caches[i], err = live.New(cfg); err != nil {
			return auditRec{}, err
		}
	}
	ops := make([]loadgen.Op, o.chunkOps)
	for c := 0; c < o.auditWarm+o.auditChunks; c++ {
		if c == o.auditWarm {
			caches[0].ResetStats()
			caches[1].ResetStats()
		}
		for i := range ops {
			ops[i] = src.Next()
		}
		loadgen.ApplyAll(caches[0], ops)
		loadgen.ApplyAll(caches[1], ops)
	}
	lru, rwp := caches[0].Stats(), caches[1].Stats()
	a := auditRec{costSpeedup: meanCost(lru) / meanCost(rwp)}
	if h := lru.ReadHitRate(); h > 0 {
		a.hitRatio = rwp.ReadHitRate() / h
	}
	return a, nil
}

// endToEndValues turns a leg into the thirteen end-to-end metrics.
func endToEndValues(l *leg) map[string]float64 {
	ex := l.exact
	share := 0.0
	if l.lawErr == nil && l.attempted > 0 {
		share = float64(l.attempted-l.failed) / float64(l.attempted)
	}
	return map[string]float64{
		"setup_s":               median(l.setupS),
		"ops_per_s":             l.overRounds(roundRec.rate),
		"cpu_us_per_op":         l.overRounds(roundRec.cpuPerOp),
		"p50_us":                l.overRounds(func(r roundRec) float64 { return r.p50 }),
		"p90_us":                l.overRounds(func(r roundRec) float64 { return r.p90 }),
		"allocs_per_op":         float64(ex.use.mallocs) / float64(ex.use.ops),
		"alloc_bytes_per_op":    float64(ex.use.bytes) / float64(ex.use.ops),
		"heap_mb":               ex.heapMB,
		"read_hit_rate":         ex.readHitRate,
		"backend_loads_per_kop": ex.loadsPerKop,
		"model_cost_per_op":     ex.modelCost,
		"rwp_lru_model_speedup": l.audit.costSpeedup,
		"verified_ops_share":    share,
	}
}
