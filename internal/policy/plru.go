package policy

import (
	"fmt"

	"rwp/internal/cache"
)

// PLRU is tree-based pseudo-LRU, the replacement actually shipped in
// most real set-associative caches (true LRU is too expensive beyond a
// few ways). Each set keeps ways-1 tree bits; a touch flips the bits on
// the root-to-leaf path away from the touched way, and the victim is
// found by following the bits. Associativity must be a power of two.
//
// It serves as an ablation baseline: the paper's mechanisms are
// evaluated over true LRU, and PLRU quantifies how much of that is
// idealization.
type PLRU struct {
	r    cache.StateReader
	bits []bool // sets*(ways-1), heap order: node i has children 2i+1, 2i+2
	ways int
}

// NewPLRU returns a fresh PLRU policy.
func NewPLRU() *PLRU { return &PLRU{} }

// Name implements cache.Policy.
func (p *PLRU) Name() string { return "plru" }

// Attach implements cache.Policy.
func (p *PLRU) Attach(r cache.StateReader) {
	w := r.Ways()
	if w&(w-1) != 0 {
		panic(fmt.Sprintf("plru: associativity %d is not a power of two", w))
	}
	p.r = r
	p.ways = w
	p.bits = make([]bool, r.NumSets()*(w-1))
}

// touch updates the tree so the path to `way` is marked most-recent
// (bits point away from it).
func (p *PLRU) touch(set, way int) {
	base := set * (p.ways - 1)
	node := 0
	// Walk from the root; at each level decide by the way's bit.
	for span := p.ways; span > 1; span /= 2 {
		goRight := way%span >= span/2
		// Bit false = next victim on the left; point away from the
		// touched side.
		p.bits[base+node] = !goRight
		if goRight {
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
}

// victimWay follows the tree bits to the pseudo-LRU way.
func (p *PLRU) victimWay(set int) int {
	base := set * (p.ways - 1)
	node := 0
	way := 0
	for span := p.ways; span > 1; span /= 2 {
		if p.bits[base+node] {
			// Bit true: victim on the right half.
			way += span / 2
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
	return way
}

// OnHit implements cache.Policy.
func (p *PLRU) OnHit(set, way int, _ cache.AccessInfo) { p.touch(set, way) }

// Victim implements cache.Policy.
func (p *PLRU) Victim(set int, _ cache.AccessInfo) (int, bool) {
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	return p.victimWay(set), false
}

// OnEvict implements cache.Policy.
func (p *PLRU) OnEvict(int, int, cache.AccessInfo) {}

// OnFill implements cache.Policy.
func (p *PLRU) OnFill(set, way int, _ cache.AccessInfo) { p.touch(set, way) }

// FIFO evicts in fill order, ignoring hits entirely — the simplest
// stateful baseline and a useful lower bound between Random and LRU.
type FIFO struct {
	r    cache.StateReader
	next []int32
}

// NewFIFO returns a fresh FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements cache.Policy.
func (p *FIFO) Name() string { return "fifo" }

// Attach implements cache.Policy.
func (p *FIFO) Attach(r cache.StateReader) {
	p.r = r
	p.next = make([]int32, r.NumSets())
}

// OnHit implements cache.Policy.
func (p *FIFO) OnHit(int, int, cache.AccessInfo) {}

// Victim implements cache.Policy.
func (p *FIFO) Victim(set int, _ cache.AccessInfo) (int, bool) {
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	w := int(p.next[set])
	p.next[set] = int32((w + 1) % p.r.Ways())
	return w, false
}

// OnEvict implements cache.Policy.
func (p *FIFO) OnEvict(int, int, cache.AccessInfo) {}

// OnFill implements cache.Policy.
func (p *FIFO) OnFill(int, int, cache.AccessInfo) {}

func init() {
	Register("plru", func() cache.Policy { return NewPLRU() })
	Register("fifo", func() cache.Policy { return NewFIFO() })
}
