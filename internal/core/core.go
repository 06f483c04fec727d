// Package core implements Read-Write Partitioning (RWP), the primary
// contribution of Khan et al., HPCA 2014.
//
// RWP logically splits every cache set into a clean partition and a dirty
// partition. A line is in the dirty partition once it has been written
// (demand store or writeback); partitions are bounded by a single global
// target size for the dirty partition, recomputed periodically by a
// predictor that maximizes expected *read* hits:
//
//   - A small number of sampler sets maintain two full-associativity
//     shadow LRU stacks per set — one for clean lines, one for dirty
//     lines — and histogram the stack distance of every read hit in each.
//   - At the end of each interval, for every candidate dirty size
//     d ∈ [0, assoc], predicted read hits are the clean-stack read hits at
//     distances < assoc−d plus the dirty-stack read hits at distances < d.
//     The d maximizing this sum becomes the target; counters then decay.
//   - On replacement, the victim is the LRU line of whichever partition
//     is over its target (dirty if the set holds ≥ target dirty lines,
//     else clean), falling back to the other partition when the chosen
//     one is empty.
//
// Because write misses are off the critical path, sacrificing write-only
// lines to keep read-serving lines resident converts write hits into
// cheap writebacks and read misses into read hits — the paper's 5 %
// (all-suite) / 14 % (cache-sensitive) single-core speedups over LRU.
package core

import (
	"fmt"

	"rwp/internal/cache"
	"rwp/internal/policy"
	"rwp/internal/probe"
	"rwp/internal/recency"
)

// Config parameterizes RWP.
type Config struct {
	// SamplerSets is the number of sets shadowed by the predictor
	// (paper-scale: 32). Clamped to the cache's set count.
	SamplerSets int
	// Interval is the number of LLC accesses between repartitionings.
	Interval uint64
	// DecayShift halves (shift=1) or quarters (shift=2) the histogram
	// counters at each repartitioning, giving the predictor hysteresis.
	DecayShift uint
	// InitialDirtyTarget seeds the partition before the first interval
	// completes; -1 selects assoc/2.
	InitialDirtyTarget int
}

// DefaultConfig returns the configuration used throughout the paper-shape
// experiments.
func DefaultConfig() Config {
	return Config{
		SamplerSets:        32,
		Interval:           100_000,
		DecayShift:         1,
		InitialDirtyTarget: -1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SamplerSets <= 0 {
		return fmt.Errorf("rwp: SamplerSets %d must be positive", c.SamplerSets)
	}
	if c.Interval == 0 {
		return fmt.Errorf("rwp: Interval must be positive")
	}
	return nil
}

// RWP is the read-write partitioning replacement policy. It implements
// cache.Policy.
type RWP struct {
	cfg Config

	r   cache.StateReader
	tab *recency.Table

	// Dirty-partition target in ways, shared by all sets.
	targetDirty int

	// written tracks partition membership per line: true once the line
	// was filled by a write (demand store / writeback) or written while
	// resident. This deliberately leads the LLC dirty bit: a store-miss
	// RFO fill is clean in the data array until the upper level writes
	// back, but the paper's partition criterion is "has been written",
	// so the line belongs to the dirty partition from the fill on.
	written      []bool
	writtenCount []int16 // per-set count of written lines

	// Sampler state: samplers[set] is non-nil for shadowed sets.
	samplerStride int
	samplers      []*shadowSet
	samplerCount  int
	cleanHist     []uint64 // read hits by clean stack distance
	dirtyHist     []uint64 // read hits by dirty stack distance
	accesses      uint64
	intervals     uint64

	// Retarget-decision direction counters: how often a repartitioning
	// grew, shrank, or kept the dirty-partition target. Plain sums, so
	// aggregating them across sets (internal/live's telemetry) is
	// order-independent; intervals == up+down+same always.
	retargetUp   uint64
	retargetDown uint64
	retargetSame uint64

	// probe receives retarget events; nil disables them.
	probe probe.Probe
}

// SetProbe implements probe.Instrumentable.
func (p *RWP) SetProbe(pr probe.Probe) { p.probe = pr }

// New returns an RWP policy with the given configuration.
func New(cfg Config) *RWP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &RWP{cfg: cfg}
}

// Name implements cache.Policy.
func (p *RWP) Name() string { return "rwp" }

// Attach implements cache.Policy.
func (p *RWP) Attach(r cache.StateReader) {
	p.r = r
	sets, ways := r.NumSets(), r.Ways()
	p.tab = recency.NewTable(sets, ways)
	n := p.cfg.SamplerSets
	if n > sets {
		n = sets
	}
	p.samplerStride = sets / n
	if p.samplerStride < 1 {
		p.samplerStride = 1
	}
	p.samplers = make([]*shadowSet, sets)
	for s := 0; s < sets; s += p.samplerStride {
		p.samplers[s] = newShadowSet(ways)
		p.samplerCount++
	}
	p.cleanHist = make([]uint64, ways)
	p.dirtyHist = make([]uint64, ways)
	p.written = make([]bool, sets*ways)
	p.writtenCount = make([]int16, sets)
	if p.cfg.InitialDirtyTarget >= 0 && p.cfg.InitialDirtyTarget <= ways {
		p.targetDirty = p.cfg.InitialDirtyTarget
	} else {
		p.targetDirty = ways / 2
	}
}

// TargetDirty returns the current dirty-partition target in ways.
func (p *RWP) TargetDirty() int { return p.targetDirty }

// Intervals returns how many repartitionings have happened.
func (p *RWP) Intervals() uint64 { return p.intervals }

// RetargetDirs returns the repartition-decision direction counts: how
// many decisions raised, lowered, or kept the dirty-partition target.
// The three always sum to Intervals().
func (p *RWP) RetargetDirs() (up, down, same uint64) {
	return p.retargetUp, p.retargetDown, p.retargetSame
}

// observe feeds the sampler and advances the interval clock. It runs on
// every access (hit or miss) so sampler sets see the same stream the real
// sets do.
func (p *RWP) observe(set int, ai cache.AccessInfo) {
	if sh := p.samplers[set]; sh != nil {
		sh.access(ai.Line, ai.Class.IsRead(), p.cleanHist, p.dirtyHist)
	}
	p.accesses++
	if p.accesses%p.cfg.Interval == 0 {
		p.repartition()
	}
}

// repartition picks the dirty-partition size maximizing predicted read
// hits and decays the histograms.
func (p *RWP) repartition() {
	prev := p.targetDirty
	p.targetDirty = BestDirtyWays(p.cleanHist, p.dirtyHist)
	switch {
	case p.targetDirty > prev:
		p.retargetUp++
	case p.targetDirty < prev:
		p.retargetDown++
	default:
		p.retargetSame++
	}
	p.intervals++
	if p.probe != nil {
		p.probe.Retarget(probe.RetargetEvent{Interval: p.intervals, Target: p.targetDirty, Accesses: p.accesses})
	}
	for i := range p.cleanHist {
		p.cleanHist[i] >>= p.cfg.DecayShift
		p.dirtyHist[i] >>= p.cfg.DecayShift
	}
}

// BestDirtyWays returns the dirty-partition size d ∈ [0, len(hist)] that
// maximizes clean read hits at distance < A−d plus dirty read hits at
// distance < d. Ties prefer the smaller d (a larger clean partition),
// since clean lines can only ever serve reads.
//
// It is exported for the predictor's property tests and for offline
// analysis tools.
func BestDirtyWays(cleanHist, dirtyHist []uint64) int {
	ways := len(cleanHist)
	if len(dirtyHist) != ways {
		panic("rwp: histogram length mismatch")
	}
	// h walks hits(d) = Σ clean[0, ways-d) + Σ dirty[0, d) from d = 0
	// up: each step gives one way from the clean partition's far end to
	// the dirty partition's. No scratch arrays — a retarget runs under
	// the live cache's group lock.
	var h uint64
	for _, n := range cleanHist {
		h += n
	}
	best, bestHits := 0, h
	for d := 1; d <= ways; d++ {
		h += dirtyHist[d-1] - cleanHist[ways-d]
		if h > bestHits {
			best, bestHits = d, h
		}
	}
	return best
}

// OnHit implements cache.Policy.
func (p *RWP) OnHit(set, way int, ai cache.AccessInfo) {
	p.observe(set, ai)
	p.tab.Touch(set, way)
	if ai.Class.IsWrite() {
		i := set*p.r.Ways() + way
		if !p.written[i] {
			p.written[i] = true
			p.writtenCount[set]++
		}
	}
}

// Victim implements cache.Policy: evict from the over-quota partition.
func (p *RWP) Victim(set int, ai cache.AccessInfo) (int, bool) {
	p.observe(set, ai)
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	ways := p.r.Ways()
	dirtyWays := int(p.writtenCount[set])
	base := set * ways
	dirty := func(w int) bool { return p.written[base+w] }
	clean := func(w int) bool { return !p.written[base+w] }
	if dirtyWays >= p.targetDirty {
		// Dirty partition at or over quota: evict its LRU line.
		if w := p.tab.LeastRecent(set, dirty); w >= 0 {
			return w, false
		}
		// No dirty lines at all (possible when target is 0): clean LRU.
		return p.tab.LeastRecent(set, clean), false
	}
	// Dirty partition under quota: shrink the clean partition.
	if w := p.tab.LeastRecent(set, clean); w >= 0 {
		return w, false
	}
	return p.tab.LeastRecent(set, dirty), false
}

// OnEvict implements cache.Policy.
func (p *RWP) OnEvict(set, way int, _ cache.AccessInfo) {
	i := set*p.r.Ways() + way
	if p.written[i] {
		p.written[i] = false
		p.writtenCount[set]--
	}
}

// OnFill implements cache.Policy: MRU insertion, with partition
// membership decided by the filling access class.
func (p *RWP) OnFill(set, way int, ai cache.AccessInfo) {
	p.tab.Touch(set, way)
	i := set*p.r.Ways() + way
	if ai.Class.IsWrite() {
		if !p.written[i] {
			p.written[i] = true
			p.writtenCount[set]++
		}
	} else if p.written[i] {
		p.written[i] = false
		p.writtenCount[set]--
	}
}

// Written reports whether the line in way of set is in the dirty
// partition (it was filled by a write or written while resident).
func (p *RWP) Written(set, way int) bool { return p.written[set*p.r.Ways()+way] }

// WrittenWays returns how many lines of set are in the dirty partition,
// as counted incrementally for victim selection.
func (p *RWP) WrittenWays(set int) int { return int(p.writtenCount[set]) }

// Histograms returns copies of the current clean/dirty read-hit
// histograms (for reports and tests).
func (p *RWP) Histograms() (clean, dirty []uint64) {
	clean = append([]uint64(nil), p.cleanHist...)
	dirty = append([]uint64(nil), p.dirtyHist...)
	return clean, dirty
}

// SamplerSetCount returns how many sets are shadowed.
func (p *RWP) SamplerSetCount() int { return p.samplerCount }

func init() {
	policy.Register("rwp", func() cache.Policy { return New(DefaultConfig()) })
}
