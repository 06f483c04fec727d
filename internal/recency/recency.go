// Package recency implements exact per-set recency stacks (true-LRU
// ordering) shared by the LRU-family policies (internal/policy), the RWP
// partitioned victim selection (internal/core) and the shadow-tag
// stack-distance samplers.
//
// A Table packs one recency stack per set — the ways of the set ordered
// from most- to least-recently used — into a single allocation.
package recency

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// MaxWays bounds the associativity a stack can track (ways are stored as
// bytes).
const MaxWays = 256

// pad fills a row's bytes past its last position, so Touch can work on
// whole words. A row is padded only when ways is not a multiple of 8,
// that is when ways ≤ 255, so no way index equals it.
const pad = 0xff

// Byte-lane constants of the word kernels: every byte 0x01, and every
// byte's high bit.
const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
)

// ZeroBytes returns x with the high bit of every zero byte set and every
// other bit clear. It is exact: a byte is flagged only when it is zero
// (the shorter borrowing form (x−ones)&^x&highs also flags a 0x01 byte
// above a zero one).
func ZeroBytes(x uint64) uint64 { return ^((x&^highs + ^uint64(highs)) | x) & highs }

// Table maintains a recency ordering of ways for every set of a cache.
// Position 0 is MRU; position ways-1 is LRU. A fresh Table orders way 0
// as MRU through way ways-1 as LRU.
type Table struct {
	ways   int
	stride int     // ways rounded up to a multiple of 8
	order  []uint8 // sets*stride: order[set*stride+pos] = way at recency pos; positions ≥ ways hold pad
}

// NewTable builds a Table for sets×ways.
func NewTable(sets, ways int) *Table {
	if sets <= 0 || ways <= 0 || ways > MaxWays {
		panic(fmt.Sprintf("recency: invalid geometry %dx%d", sets, ways))
	}
	stride := (ways + 7) &^ 7
	t := &Table{ways: ways, stride: stride, order: make([]uint8, sets*stride)}
	for s := 0; s < sets; s++ {
		row := t.order[s*stride : (s+1)*stride]
		for pos := range row {
			if pos < ways {
				row[pos] = uint8(pos)
			} else {
				row[pos] = pad
			}
		}
	}
	return t
}

// Ways returns the per-set associativity.
func (t *Table) Ways() int { return t.ways }

// row returns set's recency positions, padding excluded.
func (t *Table) row(set int) []uint8 {
	return t.order[set*t.stride : set*t.stride+t.ways]
}

// Touch promotes way to MRU, preserving the relative order of the others.
// It works a word of eight positions at a time: a zero-byte test finds
// the way, each word before it moves up one position with the previous
// word's last byte carried in, and the word holding it moves only the
// positions up to the way's. A way that is already MRU (the common case
// on L1/L2 hits) rewrites the first word unchanged.
func (t *Table) Touch(set, way int) {
	if uint(way) >= uint(t.ways) {
		missing(set, way)
	}
	pat := uint64(way) * ones
	carry := uint64(way)
	for r := t.order[set*t.stride : (set+1)*t.stride]; len(r) >= 8; r = r[8:] {
		w := binary.LittleEndian.Uint64(r)
		if z := ZeroBytes(w ^ pat); z != 0 {
			// Positions 0..p of this word, p the way's: its high bit is
			// bit 8p+7, the lowest one set in z.
			moved := uint64(1)<<(bits.TrailingZeros64(z)+1) - 1
			binary.LittleEndian.PutUint64(r, w&^moved|(w<<8|carry)&moved)
			return
		}
		binary.LittleEndian.PutUint64(r, w<<8|carry)
		carry = w >> 56
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
