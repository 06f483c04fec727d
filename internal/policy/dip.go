package policy

import (
	"rwp/internal/cache"
	"rwp/internal/probe"
	"rwp/internal/recency"
	"rwp/internal/xrand"
)

// DefaultBIPEpsilon is BIP's probability of inserting at MRU (1/32 in the
// DIP paper).
const DefaultBIPEpsilon = 1.0 / 32

// DIP (Dynamic Insertion Policy) duels LRU insertion (policy A: at MRU)
// against BIP insertion (policy B: at LRU, at MRU with probability
// DefaultBIPEpsilon) and applies the winner in follower sets. A line
// inserted at LRU must hit once to be promoted, which protects the cache
// against thrashing scans.
type DIP struct {
	r     cache.StateReader
	tab   *recency.Table
	duel  *Duel
	eps   float64
	rng   *xrand.RNG
	probe probe.Probe
}

// SetProbe implements probe.Instrumentable, forwarding to the duel (which
// may be created later, in Attach).
func (p *DIP) SetProbe(pr probe.Probe) {
	p.probe = pr
	if p.duel != nil {
		p.duel.SetProbe(pr)
	}
}

// NewDIP returns a DIP policy with standard parameters.
func NewDIP(seed uint64) *DIP {
	return &DIP{eps: DefaultBIPEpsilon, rng: xrand.New(seed)}
}

// Name implements cache.Policy.
func (p *DIP) Name() string { return "dip" }

// Attach implements cache.Policy.
func (p *DIP) Attach(r cache.StateReader) {
	p.r = r
	p.tab = recency.NewTable(r.NumSets(), r.Ways())
	p.duel = NewDuel(r.NumSets(), DefaultLeaderSets, DefaultPSELBits)
	p.duel.SetProbe(p.probe)
}

// OnHit implements cache.Policy.
func (p *DIP) OnHit(set, way int, _ cache.AccessInfo) { p.tab.Touch(set, way) }

// Victim implements cache.Policy. Demand misses train the duel.
func (p *DIP) Victim(set int, ai cache.AccessInfo) (int, bool) {
	if ai.Class != cache.Writeback {
		p.duel.Miss(set)
	}
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	return p.tab.LRU(set), false
}

// OnEvict implements cache.Policy.
func (p *DIP) OnEvict(int, int, cache.AccessInfo) {}

// OnFill implements cache.Policy: LRU insertion (A) or BIP insertion (B)
// per the duel.
func (p *DIP) OnFill(set, way int, _ cache.AccessInfo) {
	if p.duel.PolicyFor(set) {
		p.tab.Touch(set, way) // policy A: classic LRU, MRU insertion
		return
	}
	if p.rng.Chance(p.eps) { // policy B: BIP
		p.tab.Touch(set, way)
	} else {
		p.tab.InsertLRU(set, way)
	}
}

// Duel exposes the selector for tests and reports.
func (p *DIP) Duel() *Duel { return p.duel }
