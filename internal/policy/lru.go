package policy

import (
	"rwp/internal/cache"
	"rwp/internal/recency"
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
