package policy

import (
	"rwp/internal/cache"
	"rwp/internal/recency"
	"rwp/internal/xrand"
)

// TADIP is thread-aware DIP (TADIP-F, Jaleel et al., PACT 2008),
// simplified: each core owns a PSEL and its own leader sets, so a
// thrashing thread can be switched to bimodal insertion without
// punishing its cache-friendly neighbors. With one core it degenerates
// to DIP.
type TADIP struct {
	r   cache.StateReader
	tab *recency.Table

	cores   int
	stride  int
	psel    []int
	pselMax int
	eps     float64
	rng     *xrand.RNG
}

// tadipLeaderSets is the total number of leader sets, split across cores
// and the two competing insertion policies.
const tadipLeaderSets = 64

// NewTADIP returns a TADIP policy for the given core count.
func NewTADIP(cores int, seed uint64) *TADIP {
	if cores < 1 {
		cores = 1
	}
	return &TADIP{cores: cores, eps: DefaultBIPEpsilon, rng: xrand.New(seed)}
}

// Name implements cache.Policy.
func (p *TADIP) Name() string { return "tadip" }

// Attach implements cache.Policy.
func (p *TADIP) Attach(r cache.StateReader) {
	p.r = r
	sets := r.NumSets()
	p.tab = recency.NewTable(sets, r.Ways())
	leaders := tadipLeaderSets
	if leaders > sets/2 {
		leaders = sets / 2
	}
	if leaders < 2*p.cores {
		leaders = 2 * p.cores
	}
	p.stride = sets / leaders
	if p.stride < 1 {
		p.stride = 1
	}
	max := (1 << DefaultPSELBits) - 1
	p.psel = make([]int, p.cores)
	for i := range p.psel {
		p.psel[i] = (max + 1) / 2
	}
	p.pselMax = max
}

// role returns (-1,false) for follower sets, else the owning core and
// whether the set leads LRU insertion (true) or BIP insertion (false).
func (p *TADIP) role(set int) (core int, lruLeader bool, isLeader bool) {
	if set%p.stride != 0 {
		return -1, false, false
	}
	idx := set / p.stride
	return idx % p.cores, (idx/p.cores)%2 == 0, true
}

// useLRU reports core c's current follower policy.
func (p *TADIP) useLRU(c int) bool {
	if c < 0 || c >= p.cores {
		c = 0
	}
	return p.psel[c] < (p.pselMax+1)/2
}

// OnHit implements cache.Policy.
func (p *TADIP) OnHit(set, way int, _ cache.AccessInfo) { p.tab.Touch(set, way) }

// Victim implements cache.Policy. Demand misses by a set's owner train
// that owner's PSEL.
func (p *TADIP) Victim(set int, ai cache.AccessInfo) (int, bool) {
	if ai.Class != cache.Writeback {
		if c, lru, ok := p.role(set); ok && c == p.coreOf(ai) {
			if lru {
				if p.psel[c] < p.pselMax {
					p.psel[c]++
				}
			} else if p.psel[c] > 0 {
				p.psel[c]--
			}
		}
	}
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	return p.tab.LRU(set), false
}

func (p *TADIP) coreOf(ai cache.AccessInfo) int {
	if ai.Core < 0 || ai.Core >= p.cores {
		return 0
	}
	return ai.Core
}

// OnEvict implements cache.Policy.
func (p *TADIP) OnEvict(int, int, cache.AccessInfo) {}

// OnFill implements cache.Policy: the filling core's policy decides the
// insertion position; in its own leader sets the set's pinned policy
// applies.
func (p *TADIP) OnFill(set, way int, ai cache.AccessInfo) {
	c := p.coreOf(ai)
	lru := p.useLRU(c)
	if lc, pinned, ok := p.role(set); ok && lc == c {
		lru = pinned
	}
	if lru || p.rng.Chance(p.eps) {
		p.tab.Touch(set, way)
	} else {
		p.tab.InsertLRU(set, way)
	}
}

// PSEL exposes a core's selector for tests.
func (p *TADIP) PSEL(core int) int { return p.psel[core] }

func init() {
	Register("tadip", func() cache.Policy { return NewTADIP(4, 7) })
}
