package policy

import (
	"rwp/internal/cache"
	"rwp/internal/recency"
	"rwp/internal/xrand"
)

// LRU is true least-recently-used replacement with MRU insertion: the
// paper's baseline.
type LRU struct {
	r   cache.StateReader
	tab *recency.Table
}

// NewLRU returns a fresh LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements cache.Policy.
func (p *LRU) Name() string { return "lru" }

// Attach implements cache.Policy.
func (p *LRU) Attach(r cache.StateReader) {
	p.r = r
	p.tab = recency.NewTable(r.NumSets(), r.Ways())
}

// OnHit implements cache.Policy.
func (p *LRU) OnHit(set, way int, _ cache.AccessInfo) { p.tab.Touch(set, way) }

// Victim implements cache.Policy: an invalid way first, else the LRU way.
func (p *LRU) Victim(set int, _ cache.AccessInfo) (int, bool) {
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	return p.tab.LRU(set), false
}

// OnEvict implements cache.Policy.
func (p *LRU) OnEvict(int, int, cache.AccessInfo) {}

// OnFill implements cache.Policy: insert at MRU.
func (p *LRU) OnFill(set, way int, _ cache.AccessInfo) { p.tab.Touch(set, way) }

// Recency exposes the recency table for samplers and tests.
func (p *LRU) Recency() *recency.Table { return p.tab }

// Random evicts a uniformly random way. It is the simplest baseline and a
// useful lower bound in sanity experiments.
type Random struct {
	r   cache.StateReader
	rng *xrand.RNG
}

// NewRandom returns a random-replacement policy with the given seed.
func NewRandom(seed uint64) *Random { return &Random{rng: xrand.New(seed)} }

// Name implements cache.Policy.
func (p *Random) Name() string { return "random" }

// Attach implements cache.Policy.
func (p *Random) Attach(r cache.StateReader) { p.r = r }

// OnHit implements cache.Policy.
func (p *Random) OnHit(int, int, cache.AccessInfo) {}

// Victim implements cache.Policy.
func (p *Random) Victim(set int, _ cache.AccessInfo) (int, bool) {
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	return p.rng.Intn(p.r.Ways()), false
}

// OnEvict implements cache.Policy.
func (p *Random) OnEvict(int, int, cache.AccessInfo) {}

// OnFill implements cache.Policy.
func (p *Random) OnFill(int, int, cache.AccessInfo) {}

// NRU is not-recently-used: one reference bit per line; victims are chosen
// among lines with a clear bit, and all bits reset when they saturate.
type NRU struct {
	r    cache.StateReader
	refd []bool // sets*ways
}

// NewNRU returns a fresh NRU policy.
func NewNRU() *NRU { return &NRU{} }

// Name implements cache.Policy.
func (p *NRU) Name() string { return "nru" }

// Attach implements cache.Policy.
func (p *NRU) Attach(r cache.StateReader) {
	p.r = r
	p.refd = make([]bool, r.NumSets()*r.Ways())
}

func (p *NRU) mark(set, way int) {
	ways := p.r.Ways()
	p.refd[set*ways+way] = true
	// If every valid way is referenced, clear all but the current.
	for w := 0; w < ways; w++ {
		if w != way && !p.refd[set*ways+w] {
			return
		}
	}
	for w := 0; w < ways; w++ {
		if w != way {
			p.refd[set*ways+w] = false
		}
	}
}

// OnHit implements cache.Policy.
func (p *NRU) OnHit(set, way int, _ cache.AccessInfo) { p.mark(set, way) }

// Victim implements cache.Policy.
func (p *NRU) Victim(set int, _ cache.AccessInfo) (int, bool) {
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	ways := p.r.Ways()
	for w := 0; w < ways; w++ {
		if !p.refd[set*ways+w] {
			return w, false
		}
	}
	// All referenced (can happen transiently right after Attach): way 0.
	return 0, false
}

// OnEvict implements cache.Policy.
func (p *NRU) OnEvict(set, way int, _ cache.AccessInfo) {
	p.refd[set*p.r.Ways()+way] = false
}

// OnFill implements cache.Policy.
func (p *NRU) OnFill(set, way int, _ cache.AccessInfo) { p.mark(set, way) }
