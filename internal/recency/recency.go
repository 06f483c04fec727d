// Package recency implements exact per-set recency stacks (true-LRU
// ordering) shared by the LRU-family policies (internal/policy), the RWP
// partitioned victim selection (internal/core) and the shadow-tag
// stack-distance samplers.
//
// A Stack holds the ways of one cache set ordered from most- to
// least-recently used; a Table packs one Stack per set into a single
// allocation.
package recency

import "fmt"

// MaxWays bounds the associativity a stack can track (ways are stored as
// bytes).
const MaxWays = 256

// Table maintains a recency ordering of ways for every set of a cache.
// Position 0 is MRU; position ways-1 is LRU. A fresh Table orders way 0
// as MRU through way ways-1 as LRU.
type Table struct {
	ways  int
	order []uint8 // sets*ways entries: order[set*ways+pos] = way at recency pos
}

// NewTable builds a Table for sets×ways.
func NewTable(sets, ways int) *Table {
	if sets <= 0 || ways <= 0 || ways > MaxWays {
		panic(fmt.Sprintf("recency: invalid geometry %dx%d", sets, ways))
	}
	t := &Table{ways: ways, order: make([]uint8, sets*ways)}
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			t.order[s*ways+w] = uint8(w)
		}
	}
	return t
}

// Ways returns the per-set associativity.
func (t *Table) Ways() int { return t.ways }

// Sets returns the number of sets.
func (t *Table) Sets() int { return len(t.order) / t.ways }

func (t *Table) row(set int) []uint8 {
	return t.order[set*t.ways : (set+1)*t.ways]
}

// Dist returns the stack distance of way in set: 0 if MRU, ways-1 if LRU.
func (t *Table) Dist(set, way int) int {
	row := t.row(set)
	for i, w := range row {
		if int(w) == way {
			return i
		}
	}
	missing(set, way)
	return -1
}

// Touch promotes way to MRU, preserving the relative order of the others.
// A way that is already MRU (the common case on L1/L2 hits) returns at
// once.
//
//rwplint:hotpath — every hit and fill of every recency-ordered policy
func (t *Table) Touch(set, way int) {
	row := t.row(set)
	if int(row[0]) == way {
		return
	}
	for i := 1; i < len(row); i++ {
		if int(row[i]) == way {
			copy(row[1:i+1], row[:i])
			row[0] = uint8(way)
			return
		}
	}
	missing(set, way)
}

// missing is the crash path of the position searches, out of line so the
// hot functions carry no formatting code.
func missing(set, way int) {
	panic(fmt.Sprintf("recency: way %d not in set %d", way, set))
}

// InsertLRU demotes way to the LRU position, preserving the relative
// order of the others (the LIP insertion point).
func (t *Table) InsertLRU(set, way int) {
	row := t.row(set)
	pos := -1
	for i, w := range row {
		if int(w) == way {
			pos = i
			break
		}
	}
	if pos < 0 {
		missing(set, way)
	}
	copy(row[pos:], row[pos+1:])
	row[t.ways-1] = uint8(way)
}

// LRU returns the least-recently-used way of set.
func (t *Table) LRU(set int) int { return int(t.row(set)[t.ways-1]) }

// MRU returns the most-recently-used way of set.
func (t *Table) MRU(set int) int { return int(t.row(set)[0]) }

// At returns the way at recency position pos (0 = MRU).
func (t *Table) At(set, pos int) int { return int(t.row(set)[pos]) }

// LeastRecent returns the least-recently-used way of set among ways for
// which keep returns true, or -1 if none qualifies. RWP uses this to find
// the LRU line of the clean (or dirty) partition.
func (t *Table) LeastRecent(set int, keep func(way int) bool) int {
	row := t.row(set)
	for i := t.ways - 1; i >= 0; i-- {
		if w := int(row[i]); keep(w) {
			return w
		}
	}
	return -1
}
