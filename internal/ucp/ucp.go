// Package ucp implements Utility-based Cache Partitioning (Qureshi &
// Patt, MICRO 2006), one of the shared-cache baselines the paper's 4-core
// evaluation compares RWP against.
//
// UCP monitors each core's utility curve — hits it would get at every
// possible allocation — with per-core UMON samplers (full-associativity
// shadow LRU stacks over sampled sets), then periodically partitions the
// ways of the shared cache across cores by greedy marginal utility.
// Enforcement is at victim selection: the victim comes from a core whose
// occupancy in the set exceeds its allocation.
package ucp

import (
	"fmt"

	"rwp/internal/cache"
	"rwp/internal/mem"
	"rwp/internal/policy"
	"rwp/internal/recency"
)

// Config parameterizes UCP.
type Config struct {
	// Cores is the number of partitioning domains sharing the cache.
	Cores int
	// SamplerSets is the number of UMON-shadowed sets.
	SamplerSets int
	// Interval is the number of accesses between repartitionings.
	Interval uint64
	// DecayShift halves (1) the UMON counters at each repartitioning.
	DecayShift uint
}

// DefaultConfig returns a paper-scale 4-core configuration.
func DefaultConfig(cores int) Config {
	return Config{Cores: cores, SamplerSets: 32, Interval: 100_000, DecayShift: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores >= noOwner {
		return fmt.Errorf("ucp: Cores %d out of [1,%d]", c.Cores, noOwner-1)
	}
	if c.SamplerSets < 1 {
		return fmt.Errorf("ucp: SamplerSets %d must be positive", c.SamplerSets)
	}
	if c.Interval == 0 {
		return fmt.Errorf("ucp: Interval must be positive")
	}
	return nil
}

// noOwner marks a way filled by a core outside [0, Cores): it counts
// toward no core's occupancy and is no core's victim.
const noOwner = 0xff

// UCP is the utility-based partitioning policy. It implements
// cache.Policy.
type UCP struct {
	cfg Config

	r   cache.StateReader
	tab *recency.Table

	// owner[set*ways+way] is the core whose data the way holds: the core
	// of its fill or of its last Writeback hit. A demand store does not
	// change it: below the private levels a store is an RFO that leaves
	// the data in the storing core's L1, and the line becomes that
	// core's only when the modified data arrives as a Writeback. In an
	// LLC built by hier.New these are exactly the accesses that dirty a
	// line. Only valid ways are read.
	owner []uint8
	// occ is Victim's per-core occupancy scratch.
	occ []int

	// alloc[i] is core i's way quota; sums to assoc.
	alloc []int

	// UMON state: per core, per sampled set, one shadow stack; hits[i][d]
	// counts core i's hits at stack distance d. shadow[set] is non-nil
	// for shadowed sets.
	stride   int
	shadow   [][]umonStack
	hits     [][]uint64
	accesses uint64
	history  [][]int
}

// New returns a UCP policy for the given configuration.
func New(cfg Config) *UCP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &UCP{cfg: cfg}
}

// Name implements cache.Policy.
func (p *UCP) Name() string { return "ucp" }

// Attach implements cache.Policy.
func (p *UCP) Attach(r cache.StateReader) {
	p.r = r
	sets, ways := r.NumSets(), r.Ways()
	p.tab = recency.NewTable(sets, ways)
	p.owner = make([]uint8, sets*ways)
	p.occ = make([]int, p.cfg.Cores)
	n := p.cfg.SamplerSets
	if n > sets {
		n = sets
	}
	p.stride = sets / n
	if p.stride < 1 {
		p.stride = 1
	}
	p.shadow = make([][]umonStack, sets)
	for s := 0; s < sets; s += p.stride {
		stacks := make([]umonStack, p.cfg.Cores)
		for i := range stacks {
			stacks[i] = umonStack{cap: ways}
		}
		p.shadow[s] = stacks
	}
	p.hits = make([][]uint64, p.cfg.Cores)
	for i := range p.hits {
		p.hits[i] = make([]uint64, ways)
	}
	// Even initial split, remainder to low cores.
	p.alloc = make([]int, p.cfg.Cores)
	for w := 0; w < ways; w++ {
		p.alloc[w%p.cfg.Cores]++
	}
}

// Allocations returns a copy of the current per-core way quotas.
func (p *UCP) Allocations() []int { return append([]int(nil), p.alloc...) }

// History returns the allocation chosen at each interval boundary.
func (p *UCP) History() [][]int { return p.history }

func (p *UCP) observe(set int, ai cache.AccessInfo) {
	if stacks := p.shadow[set]; stacks != nil && ai.Core >= 0 && ai.Core < len(stacks) {
		if d := stacks[ai.Core].access(ai.Line); d >= 0 {
			p.hits[ai.Core][d]++
		}
	}
	p.accesses++
	if p.accesses%p.cfg.Interval == 0 {
		p.repartition()
	}
}

func (p *UCP) repartition() {
	p.alloc = Partition(p.hits, p.r.Ways())
	p.history = append(p.history, append([]int(nil), p.alloc...))
	for i := range p.hits {
		for d := range p.hits[i] {
			p.hits[i][d] >>= p.cfg.DecayShift
		}
	}
}

// Partition allocates ways across cores by greedy marginal utility: each
// way goes to the core whose next stack position holds the most hits.
// Every core receives at least one way when ways >= cores.
//
// Exported for property tests and offline analysis.
func Partition(hits [][]uint64, ways int) []int {
	cores := len(hits)
	alloc := make([]int, cores)
	given := 0
	// Guarantee minimum one way per core (UCP's constraint), as long as
	// capacity allows.
	for i := 0; i < cores && given < ways; i++ {
		alloc[i]++
		given++
	}
	for ; given < ways; given++ {
		best, bestUtil := 0, ^uint64(0)
		first := true
		for i := 0; i < cores; i++ {
			if alloc[i] >= ways {
				continue
			}
			u := hits[i][alloc[i]]
			if first || u > bestUtil {
				best, bestUtil, first = i, u, false
			}
		}
		alloc[best]++
	}
	return alloc
}

// OnHit implements cache.Policy.
func (p *UCP) OnHit(set, way int, ai cache.AccessInfo) {
	p.observe(set, ai)
	p.tab.Touch(set, way)
	if ai.Class == cache.Writeback {
		p.own(set, way, ai.Core)
	}
}

// own records core as the owner of way in set.
func (p *UCP) own(set, way, core int) {
	o := uint8(noOwner)
	if core >= 0 && core < p.cfg.Cores {
		o = uint8(core)
	}
	p.owner[set*p.r.Ways()+way] = o
}

// Victim implements cache.Policy: evict the LRU line of an over-quota
// core; if no core is over quota (e.g. invalid ways exist elsewhere),
// fall back to global LRU.
func (p *UCP) Victim(set int, ai cache.AccessInfo) (int, bool) {
	p.observe(set, ai)
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	ways := p.r.Ways()
	owner := p.owner[set*ways : (set+1)*ways]
	occ := p.occ
	clear(occ)
	for _, o := range owner {
		if int(o) < p.cfg.Cores {
			occ[o]++
		}
	}
	// The requesting core deserves space if under quota: victimize the
	// most-over-quota core's LRU line.
	victimCore := -1
	worst := 0
	for i := 0; i < p.cfg.Cores; i++ {
		if over := occ[i] - p.alloc[i]; over > worst {
			worst, victimCore = over, i
		}
	}
	if victimCore < 0 && ai.Core >= 0 && ai.Core < p.cfg.Cores && occ[ai.Core] >= p.alloc[ai.Core] {
		// Requester at/over quota and nobody else over: recycle its own.
		victimCore = ai.Core
	}
	if victimCore >= 0 {
		if w := p.tab.LeastRecent(set, func(w int) bool {
			return int(owner[w]) == victimCore
		}); w >= 0 {
			return w, false
		}
	}
	return p.tab.LRU(set), false
}

// OnEvict implements cache.Policy.
func (p *UCP) OnEvict(int, int, cache.AccessInfo) {}

// OnFill implements cache.Policy.
func (p *UCP) OnFill(set, way int, ai cache.AccessInfo) {
	p.tab.Touch(set, way)
	p.own(set, way, ai.Core)
}

// umonStack is a per-core fully-associative shadow LRU stack.
type umonStack struct {
	cap   int
	lines []mem.LineAddr
}

// access looks the line up, returning its stack distance (or -1 on miss)
// and updating the stack.
func (st *umonStack) access(line mem.LineAddr) int {
	for i, l := range st.lines {
		if l == line {
			copy(st.lines[1:i+1], st.lines[:i])
			st.lines[0] = line
			return i
		}
	}
	if len(st.lines) >= st.cap {
		copy(st.lines[1:], st.lines[:st.cap-1])
	} else {
		st.lines = append(st.lines, 0)
		copy(st.lines[1:], st.lines[:len(st.lines)-1])
	}
	st.lines[0] = line
	return -1
}

func init() {
	policy.Register("ucp", func() cache.Policy { return New(DefaultConfig(4)) })
}
