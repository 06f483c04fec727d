package cache

import (
	"testing"
	"testing/quick"

	"rwp/internal/mem"
)

// fifoPolicy is a minimal self-contained policy for exercising the cache
// model without importing internal/policy (avoiding an import cycle in
// tests).
type fifoPolicy struct {
	r    StateReader
	next []int
}

func (p *fifoPolicy) Name() string { return "fifo-test" }
func (p *fifoPolicy) Attach(r StateReader) {
	p.r = r
	p.next = make([]int, r.NumSets())
}
func (p *fifoPolicy) OnHit(int, int, AccessInfo) {}
func (p *fifoPolicy) Victim(set int, _ AccessInfo) (int, bool) {
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	w := p.next[set]
	p.next[set] = (w + 1) % p.r.Ways()
	return w, false
}
func (p *fifoPolicy) OnEvict(int, int, AccessInfo) {}
func (p *fifoPolicy) OnFill(int, int, AccessInfo)  {}

// bypassAllPolicy bypasses every fill.
type bypassAllPolicy struct{ fifoPolicy }

func (p *bypassAllPolicy) Victim(int, AccessInfo) (int, bool) { return 0, true }

func testCache(t *testing.T, sizeBytes, ways int, p Policy) *Cache {
	t.Helper()
	c, err := New(Config{Name: "test", SizeBytes: sizeBytes, Ways: ways, LineSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "x", SizeBytes: 4096, Ways: 4, LineSize: 64}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if good.Sets() != 16 {
		t.Fatalf("Sets() = %d, want 16", good.Sets())
	}
	bad := []Config{
		{SizeBytes: 4096, Ways: 0, LineSize: 64},
		{SizeBytes: 512 * 64 * 4, Ways: 512, LineSize: 64}, // wider than a recency stack
		{SizeBytes: 4096, Ways: 4, LineSize: 60},
		{SizeBytes: 4000, Ways: 4, LineSize: 64},
		{SizeBytes: 4096 * 3, Ways: 4, LineSize: 64}, // 48 sets, not a power of two
		{SizeBytes: 0, Ways: 4, LineSize: 64},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewRejectsNilPolicy(t *testing.T) {
	if _, err := New(Config{Name: "x", SizeBytes: 4096, Ways: 4, LineSize: 64}, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := testCache(t, 4096, 4, &fifoPolicy{})
	line := mem.LineAddr(0x100)
	res := c.Access(line, 0, DemandLoad, 0)
	if res.Hit {
		t.Fatal("cold access hit")
	}
	res = c.Access(line, 0, DemandLoad, 0)
	if !res.Hit {
		t.Fatal("second access missed")
	}
	st := c.Stats()
	if st.Accesses[DemandLoad] != 2 || st.Hits[DemandLoad] != 1 || st.Misses[DemandLoad] != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

// testCacheSingleSet builds a one-set cache of the given associativity.
func testCacheSingleSet(t *testing.T, ways int, p Policy) *Cache {
	t.Helper()
	return testCache(t, 64*ways, ways, p)
}

func TestDirtyEvictionProducesWriteback(t *testing.T) {
	c := testCacheSingleSet(t, 2, &fifoPolicy{})
	// Fill way 0 dirty, way 1 clean.
	c.Access(1, 0, DemandStore, 0)
	c.Access(2, 0, DemandLoad, 0)
	// Third distinct line evicts way 0 (FIFO), which is dirty.
	res := c.Access(3, 0, DemandLoad, 0)
	if res.Hit {
		t.Fatal("expected miss")
	}
	if !res.Writeback || res.WritebackLine != 1 {
		t.Fatalf("expected writeback of line 1, got %+v", res)
	}
	// Fourth distinct line evicts way 1, which is clean.
	res = c.Access(4, 0, DemandLoad, 0)
	if res.Writeback {
		t.Fatalf("clean eviction produced writeback: %+v", res)
	}
	st := c.Stats()
	if st.Evictions != 2 || st.DirtyEvict != 1 {
		t.Fatalf("eviction stats wrong: %+v", st)
	}
}

func TestStoreHitDirtiesLine(t *testing.T) {
	c := testCacheSingleSet(t, 2, &fifoPolicy{})
	c.Access(1, 0, DemandLoad, 0) // fill clean
	set, way, ok := c.Lookup(1)
	if !ok || c.State(set, way).Dirty {
		t.Fatal("load fill should be clean")
	}
	c.Access(1, 0, DemandStore, 0) // store hit
	if !c.State(set, way).Dirty {
		t.Fatal("store hit did not dirty the line")
	}
}

func TestWritebackClassFillsDirty(t *testing.T) {
	c := testCacheSingleSet(t, 2, &fifoPolicy{})
	c.Access(7, 0, Writeback, 0)
	set, way, ok := c.Lookup(7)
	if !ok {
		t.Fatal("writeback miss did not allocate")
	}
	if !c.State(set, way).Dirty {
		t.Fatal("writeback fill must be dirty")
	}
}

func TestBypass(t *testing.T) {
	c := testCacheSingleSet(t, 2, &bypassAllPolicy{})
	res := c.Access(1, 0, DemandLoad, 0)
	if res.Hit || !res.Bypassed {
		t.Fatalf("expected bypass, got %+v", res)
	}
	if _, _, ok := c.Lookup(1); ok {
		t.Fatal("bypassed line was cached")
	}
	st := c.Stats()
	if st.Bypasses[DemandLoad] != 1 || st.TotalBypasses() != 1 || st.Fills != 0 {
		t.Fatalf("bypass stats wrong: %+v", st)
	}
}

func TestInvalidate(t *testing.T) {
	c := testCacheSingleSet(t, 2, &fifoPolicy{})
	c.Access(1, 0, DemandStore, 0)
	dirty, present := c.Invalidate(1)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v, %v), want (true, true)", dirty, present)
	}
	if _, _, ok := c.Lookup(1); ok {
		t.Fatal("line present after invalidate")
	}
	dirty, present = c.Invalidate(1)
	if present || dirty {
		t.Fatal("invalidating an absent line reported presence")
	}
}

func TestSetIndexDistribution(t *testing.T) {
	c := testCache(t, 4096, 4, &fifoPolicy{}) // 16 sets
	for i := 0; i < 16; i++ {
		if got := c.SetIndex(mem.LineAddr(i)); got != i {
			t.Fatalf("SetIndex(%d) = %d", i, got)
		}
	}
	if got := c.SetIndex(mem.LineAddr(16)); got != 0 {
		t.Fatalf("SetIndex(16) = %d, want 0", got)
	}
}

func TestStatsInvariantsQuick(t *testing.T) {
	// Property: for any access stream, hits+misses == accesses per class,
	// fills+bypasses == total misses, the dirty splits stay within their
	// totals, valid lines per set <= ways, and no duplicate tags within a
	// set.
	f := func(ops []uint16) bool {
		c := testCache(t, 2048, 4, &fifoPolicy{}) // 8 sets
		for _, op := range ops {
			line := mem.LineAddr(op % 512)
			class := Class(op % 3)
			c.Access(line, mem.Addr(op), class, 0)
		}
		st := c.Stats()
		for cl := 0; cl < 3; cl++ {
			if st.Hits[cl]+st.Misses[cl] != st.Accesses[cl] ||
				st.HitsDirty[cl] > st.Hits[cl] || st.FillsDirty[cl] > st.Misses[cl]-st.Bypasses[cl] {
				return false
			}
		}
		if st.Fills+st.TotalBypasses() != st.TotalMisses() || st.FillsDirty[DemandLoad] != 0 {
			return false
		}
		for s := 0; s < c.NumSets(); s++ {
			if c.ValidWays(s) > c.Ways() {
				return false
			}
			seen := map[mem.LineAddr]bool{}
			for w := 0; w < c.Ways(); w++ {
				ls := c.State(s, w)
				if !ls.Valid {
					continue
				}
				if seen[ls.Tag] {
					return false
				}
				seen[ls.Tag] = true
				if c.SetIndex(ls.Tag) != s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyWaysMatchesState(t *testing.T) {
	c := testCache(t, 1024, 4, &fifoPolicy{}) // 4 sets
	c.Access(0, 0, DemandStore, 0)
	c.Access(4, 0, DemandStore, 0) // same set 0
	c.Access(8, 0, DemandLoad, 0)
	if got := c.DirtyWays(0); got != 2 {
		t.Fatalf("DirtyWays = %d, want 2", got)
	}
	if got := c.ValidWays(0); got != 3 {
		t.Fatalf("ValidWays = %d, want 3", got)
	}
}

func TestStatsAdd(t *testing.T) {
	var a, b Stats
	a.Accesses[DemandLoad] = 3
	a.Misses[DemandLoad] = 1
	b.Accesses[DemandLoad] = 2
	b.DirtyEvict = 5
	a.Add(b)
	if a.Accesses[DemandLoad] != 5 || a.DirtyEvict != 5 || a.Misses[DemandLoad] != 1 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestClassPredicates(t *testing.T) {
	if !DemandLoad.IsRead() || DemandLoad.IsWrite() {
		t.Error("DemandLoad predicates wrong")
	}
	if DemandStore.IsRead() || !DemandStore.IsWrite() {
		t.Error("DemandStore predicates wrong")
	}
	if Writeback.IsRead() || !Writeback.IsWrite() {
		t.Error("Writeback predicates wrong")
	}
	if DemandLoad.String() != "load" || Writeback.String() != "writeback" {
		t.Error("Class strings wrong")
	}
}

func TestMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio(DemandLoad) != 0 { //rwplint:allow floateq — exact: zero-access ratio is exactly 0
		t.Fatal("zero-access miss ratio must be 0")
	}
	s.Accesses[DemandLoad] = 4
	s.Misses[DemandLoad] = 1
	if s.MissRatio(DemandLoad) != 0.25 { //rwplint:allow floateq — exact: 1/4 is exactly representable
		t.Fatalf("MissRatio = %v", s.MissRatio(DemandLoad))
	}
}
