package recency

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"rwp/internal/xrand"
)

// order returns set's recency order, MRU first.
func order(tab *Table, set int) []int {
	out := make([]int, tab.Ways())
	for pos := range out {
		out[pos] = tab.At(set, pos)
	}
	return out
}

// dist returns the stack distance of every way of set.
func dist(tab *Table, set int) []int {
	d := make([]int, tab.Ways())
	for pos, w := range order(tab, set) {
		d[w] = pos
	}
	return d
}

func TestFreshOrder(t *testing.T) {
	tab := NewTable(4, 8)
	if tab.Ways() != 8 {
		t.Fatalf("ways = %d, want 8", tab.Ways())
	}
	for s := 0; s < 4; s++ {
		if tab.At(s, 0) != 0 || tab.LRU(s) != 7 {
			t.Fatalf("set %d fresh order wrong: mru=%d lru=%d", s, tab.At(s, 0), tab.LRU(s))
		}
		for w, d := range dist(tab, s) {
			if d != w {
				t.Fatalf("fresh dist of way %d = %d", w, d)
			}
		}
	}
}

func TestTouchPromotes(t *testing.T) {
	tab := NewTable(1, 4)
	tab.Touch(0, 2)
	// Expect order 2,0,1,3
	want := []int{2, 0, 1, 3}
	for pos, w := range want {
		if tab.At(0, pos) != w {
			t.Fatalf("pos %d = %d, want %d", pos, tab.At(0, pos), w)
		}
	}
	tab.Touch(0, 3)
	want = []int{3, 2, 0, 1}
	for pos, w := range want {
		if tab.At(0, pos) != w {
			t.Fatalf("after second touch pos %d = %d, want %d", pos, tab.At(0, pos), w)
		}
	}
}

func TestTouchMRUIsNoop(t *testing.T) {
	tab := NewTable(1, 4)
	tab.Touch(0, 1)
	before := []int{tab.At(0, 0), tab.At(0, 1), tab.At(0, 2), tab.At(0, 3)}
	tab.Touch(0, 1)
	for pos, w := range before {
		if tab.At(0, pos) != w {
			t.Fatal("touching the MRU way changed the order")
		}
	}
}

func TestInsertLRU(t *testing.T) {
	tab := NewTable(1, 4)
	tab.InsertLRU(0, 0)
	want := []int{1, 2, 3, 0}
	for pos, w := range want {
		if tab.At(0, pos) != w {
			t.Fatalf("pos %d = %d, want %d", pos, tab.At(0, pos), w)
		}
	}
	if tab.LRU(0) != 0 {
		t.Fatal("InsertLRU did not put way at LRU")
	}
}

func TestLRUStackProperty(t *testing.T) {
	// Property: Touch moves the touched way to distance 0, increments by
	// one the distance of every way previously more recent than it, and
	// leaves all others unchanged.
	f := func(ops []uint8) bool {
		const ways = 8
		tab := NewTable(1, ways)
		for _, op := range ops {
			w := int(op) % ways
			before := dist(tab, 0)
			tab.Touch(0, w)
			after := dist(tab, 0)
			if after[w] != 0 {
				return false
			}
			for v := 0; v < ways; v++ {
				if v == w {
					continue
				}
				if before[v] < before[w] {
					if after[v] != before[v]+1 {
						return false
					}
				} else if after[v] != before[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderIsAlwaysPermutation(t *testing.T) {
	rng := xrand.New(42)
	tab := NewTable(2, 16)
	for i := 0; i < 10000; i++ {
		set := rng.Intn(2)
		w := rng.Intn(16)
		if rng.Intn(2) == 0 {
			tab.Touch(set, w)
		} else {
			tab.InsertLRU(set, w)
		}
		var seen [16]bool
		for pos := 0; pos < 16; pos++ {
			w := tab.At(set, pos)
			if seen[w] {
				t.Fatalf("iteration %d: way %d appears twice", i, w)
			}
			seen[w] = true
		}
	}
}

func TestLeastRecent(t *testing.T) {
	tab := NewTable(1, 4)
	// Fresh order: 0 MRU ... 3 LRU.
	got := tab.LeastRecent(0, func(w int) bool { return w%2 == 0 })
	if got != 2 {
		t.Fatalf("LRU even way = %d, want 2", got)
	}
	got = tab.LeastRecent(0, func(w int) bool { return false })
	if got != -1 {
		t.Fatalf("empty predicate returned %d, want -1", got)
	}
	got = tab.LeastRecent(0, func(w int) bool { return true })
	if got != tab.LRU(0) {
		t.Fatal("LeastRecent(true) != LRU")
	}
}

func TestPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTable(0, 4) did not panic")
		}
	}()
	NewTable(0, 4)
}

// TestTouchPanicsOnMissingWay: a way outside the set is a caller bug and
// crashes, as the byte loop did, rather than matching some other way's
// byte.
func TestTouchPanicsOnMissingWay(t *testing.T) {
	for _, way := range []int{-1, 9, 255, 256, 300} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Touch(0, %d) on a 9-way table did not panic", way)
				}
			}()
			NewTable(2, 9).Touch(0, way)
		}()
	}
}

// TestZeroBytesIsExact holds ZeroBytes to a byte-by-byte count on words
// built from the bytes that trip inexact forms: 0x00, 0x01, 0x80, 0xff
// and their neighbours, in every position.
func TestZeroBytesIsExact(t *testing.T) {
	lanes := []uint64{0x00, 0x01, 0x02, 0x7f, 0x80, 0x81, 0xfe, 0xff}
	rng := xrand.New(8)
	for i := 0; i < 100_000; i++ {
		var x, want uint64
		for b := 0; b < 8; b++ {
			v := lanes[rng.Intn(len(lanes))]
			x |= v << (8 * b)
			if v == 0 {
				want |= 0x80 << (8 * b)
			}
		}
		if got := ZeroBytes(x); got != want {
			t.Fatalf("ZeroBytes(%#016x) = %#016x, want %#016x", x, got, want)
		}
	}
}

// refTable is the differential oracle for Table: the byte-at-a-time
// kernels Table had before it worked on words, one unpadded row per set.
type refTable struct{ rows [][]uint8 }

func newRefTable(sets, ways int) *refTable {
	r := &refTable{rows: make([][]uint8, sets)}
	for s := range r.rows {
		r.rows[s] = make([]uint8, ways)
		for w := range r.rows[s] {
			r.rows[s][w] = uint8(w)
		}
	}
	return r
}

func (r *refTable) touch(set, way int) {
	row := r.rows[set]
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
	panic("reference: way not in set")
}

func (r *refTable) insertLRU(set, way int) {
	row := r.rows[set]
	pos := bytes.IndexByte(row, uint8(way))
	copy(row[pos:], row[pos+1:])
	row[len(row)-1] = uint8(way)
}

func (r *refTable) leastRecent(set int, keep func(int) bool) int {
	row := r.rows[set]
	for i := len(row) - 1; i >= 0; i-- {
		if keep(int(row[i])) {
			return int(row[i])
		}
	}
	return -1
}

// sameTable compares every row of tab with the reference, position by
// position, and holds every padding byte at pad.
func sameTable(t testing.TB, step string, tab *Table, ref *refTable) {
	t.Helper()
	for s, want := range ref.rows {
		row := tab.order[s*tab.stride : (s+1)*tab.stride]
		if !bytes.Equal(row[:tab.ways], want) {
			t.Fatalf("%s: set %d order %v, reference %v", step, s, row[:tab.ways], want)
		}
		for pos := tab.ways; pos < tab.stride; pos++ {
			if row[pos] != pad {
				t.Fatalf("%s: set %d padding byte %d is %#x, want %#x", step, s, pos, row[pos], pad)
			}
		}
		if got := tab.LRU(s); got != int(want[len(want)-1]) {
			t.Fatalf("%s: set %d LRU %d, reference %d", step, s, got, want[len(want)-1])
		}
	}
	if len(tab.order) != len(ref.rows)*tab.stride {
		t.Fatalf("%s: table holds %d bytes, want %d", step, len(tab.order), len(ref.rows)*tab.stride)
	}
}

// runTable drives tab and a reference through one op stream: each op is
// two bytes (kind, argument). Touch dominates, as it does in every
// policy; the way touched is biased to the far end of the stack, where a
// word kernel carries across the most words.
func runTable(t testing.TB, sets, ways int, ops []byte) {
	t.Helper()
	tab, ref := NewTable(sets, ways), newRefTable(sets, ways)
	sameTable(t, "fresh", tab, ref)
	for i := 0; i+1 < len(ops); i += 2 {
		kind, arg := ops[i], int(ops[i+1])
		set := (int(kind) >> 3) % sets
		step := fmt.Sprintf("op %d", i/2)
		switch kind % 8 {
		case 0, 1, 2, 3:
			way := arg % ways
			tab.Touch(set, way)
			ref.touch(set, way)
		case 4:
			// Touch the way at a chosen recency position.
			way := int(ref.rows[set][arg%ways])
			tab.Touch(set, way)
			ref.touch(set, way)
		case 5:
			way := arg % ways
			tab.InsertLRU(set, way)
			ref.insertLRU(set, way)
		case 6:
			pos := arg % ways
			if got, want := tab.At(set, pos), int(ref.rows[set][pos]); got != want {
				t.Fatalf("%s: At(%d, %d) = %d, reference %d", step, set, pos, got, want)
			}
		case 7:
			// A way subset as a bit pattern, as RWP's written bits are.
			keep := func(w int) bool { return bits.RotateLeft8(uint8(arg), w)&1 != 0 }
			if got, want := tab.LeastRecent(set, keep), ref.leastRecent(set, keep); got != want {
				t.Fatalf("%s: LeastRecent(%d, %#x) = %d, reference %d", step, set, arg, got, want)
			}
		}
		sameTable(t, step, tab, ref)
	}
}

// differentialWays are the associativities the word kernel must get
// right: one word and less, a word and a byte either side, several
// words, and the byte-indexed maximum (no padding at 8, 16, 32, 64, 256).
var differentialWays = []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 64, 255, 256}

// TestTableMatchesReference drives Table and the byte-loop reference with
// seeded Touch, InsertLRU, At and LeastRecent streams at every width in
// differentialWays and demands identical rows after every op.
func TestTableMatchesReference(t *testing.T) {
	for _, ways := range differentialWays {
		for _, sets := range []int{1, 3} {
			t.Run(fmt.Sprintf("%dx%d", sets, ways), func(t *testing.T) {
				rng := xrand.New(uint64(ways*8 + sets))
				ops := make([]byte, 2*4000)
				for i := range ops {
					ops[i] = byte(rng.Intn(256))
				}
				runTable(t, sets, ways, ops)
			})
		}
	}
}

// FuzzTable runs arbitrary op streams through Table and the reference.
// The first byte picks the width from differentialWays, the second the
// set count; the rest are (kind, argument) pairs as in runTable.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{4, 1, 4, 3, 5, 1, 0, 17, 7, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := differentialWays[int(data[0])%len(differentialWays)]
		sets := 1 + int(data[1])%4
		runTable(t, sets, ways, data[2:])
	})
}
