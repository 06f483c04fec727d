package policy

import (
	"rwp/internal/cache"
	"rwp/internal/xrand"
)

// DefaultRRPVBits is the RRPV width from the RRIP paper (2 bits: values
// 0..3, distant = 2, long = 3).
const DefaultRRPVBits = 2

// rripBase holds the RRPV array and victim scan shared by DRRIP and SHiP.
type rripBase struct {
	r       cache.StateReader
	rrpv    []uint8
	max     uint8 // 2^bits - 1 ("long" re-reference interval)
	distant uint8 // max-1
}

func (b *rripBase) attach(r cache.StateReader, bits int) {
	b.r = r
	b.max = uint8(1<<bits - 1)
	b.distant = b.max - 1
	b.rrpv = make([]uint8, r.NumSets()*r.Ways())
	for i := range b.rrpv {
		b.rrpv[i] = b.max
	}
}

func (b *rripBase) idx(set, way int) int { return set*b.r.Ways() + way }

// victim finds the first way with RRPV == max, aging the whole set until
// one exists. Invalid ways win immediately.
func (b *rripBase) victim(set int) int {
	if w := b.r.InvalidWay(set); w >= 0 {
		return w
	}
	ways := b.r.Ways()
	for {
		for w := 0; w < ways; w++ {
			if b.rrpv[b.idx(set, w)] == b.max {
				return w
			}
		}
		for w := 0; w < ways; w++ {
			b.rrpv[b.idx(set, w)]++
		}
	}
}

// DRRIP duels SRRIP insertion (A: distant RRPV on fill) against BRRIP
// insertion (B: long RRPV, distant with probability DefaultBIPEpsilon).
// Both promote to RRPV 0 on a hit.
type DRRIP struct {
	rripBase
	bits int
	duel *Duel
	eps  float64
	rng  *xrand.RNG
}

// NewDRRIP returns a DRRIP policy with standard parameters.
func NewDRRIP(bits int, seed uint64) *DRRIP {
	return &DRRIP{bits: bits, eps: DefaultBIPEpsilon, rng: xrand.New(seed)}
}

// Name implements cache.Policy.
func (p *DRRIP) Name() string { return "drrip" }

// Attach implements cache.Policy.
func (p *DRRIP) Attach(r cache.StateReader) {
	p.attach(r, p.bits)
	p.duel = NewDuel(r.NumSets(), DefaultLeaderSets, DefaultPSELBits)
}

// OnHit implements cache.Policy.
func (p *DRRIP) OnHit(set, way int, _ cache.AccessInfo) { p.rrpv[p.idx(set, way)] = 0 }

// Victim implements cache.Policy.
func (p *DRRIP) Victim(set int, ai cache.AccessInfo) (int, bool) {
	if ai.Class != cache.Writeback {
		p.duel.Miss(set)
	}
	return p.victim(set), false
}

// OnEvict implements cache.Policy.
func (p *DRRIP) OnEvict(int, int, cache.AccessInfo) {}

// OnFill implements cache.Policy.
func (p *DRRIP) OnFill(set, way int, _ cache.AccessInfo) {
	if p.duel.PolicyFor(set) { // SRRIP
		p.rrpv[p.idx(set, way)] = p.distant
		return
	}
	if p.rng.Chance(p.eps) { // BRRIP
		p.rrpv[p.idx(set, way)] = p.distant
	} else {
		p.rrpv[p.idx(set, way)] = p.max
	}
}

// Duel exposes the selector for tests and reports.
func (p *DRRIP) Duel() *Duel { return p.duel }
