package policy

import (
	"slices"
	"testing"

	"rwp/internal/cache"
	"rwp/internal/mem"
)

func newCache(t *testing.T, sizeBytes, ways int, p cache.Policy) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{Name: "t", SizeBytes: sizeBytes, Ways: ways, LineSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// singleSet builds a one-set cache of the given associativity.
func singleSet(t *testing.T, ways int, p cache.Policy) *cache.Cache {
	return newCache(t, 64*ways, ways, p)
}

// access touches line with a demand load.
func load(c *cache.Cache, line mem.LineAddr) cache.Result {
	return c.Access(line, mem.Addr(line)*64, cache.DemandLoad, 0)
}

func TestRegistryKnowsAllPolicies(t *testing.T) {
	// Exactly the baselines the experiments compare; a registration no
	// experiment uses fails here.
	want := []string{"dip", "drrip", "lru", "ship", "tadip"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		p, err := New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("New(%q).Name() = %q", n, p.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestEveryPolicyRunsCleanly(t *testing.T) {
	// Smoke test: every registered policy can drive a cache through a
	// mixed access pattern without panicking and with sane stats.
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		c := newCache(t, 8192, 4, p) // 32 sets, 128-line capacity
		for i := 0; i < 20000; i++ {
			line := mem.LineAddr(i % 96) // fits: short reuse distance
			class := cache.Class(i % 3)
			c.Access(line, mem.Addr(i%64)*4, class, 0)
		}
		st := c.Stats()
		if st.TotalAccesses() != 20000 {
			t.Errorf("%s: accesses = %d", name, st.TotalAccesses())
		}
		if st.TotalHits() == 0 {
			t.Errorf("%s: no hits on a reuse-heavy pattern", name)
		}
		for s := 0; s < c.NumSets(); s++ {
			if c.ValidWays(s) > c.Ways() {
				t.Fatalf("%s: set %d overfull", name, s)
			}
		}
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := singleSet(t, 4, NewLRU())
	for line := mem.LineAddr(1); line <= 4; line++ {
		load(c, line)
	}
	// Touch 1,2,3 so 4 is LRU.
	load(c, 1)
	load(c, 2)
	load(c, 3)
	load(c, 5) // evicts 4
	if _, _, ok := c.Lookup(4); ok {
		t.Fatal("LRU did not evict least-recent line 4")
	}
	for _, l := range []mem.LineAddr{1, 2, 3, 5} {
		if _, _, ok := c.Lookup(l); !ok {
			t.Fatalf("line %d wrongly evicted", l)
		}
	}
}

func TestLRUHitCurveMatchesStackDistance(t *testing.T) {
	// Cyclic access to W lines in a W-way set hits forever after warmup;
	// W+1 lines miss forever (classic LRU pathologies).
	c := singleSet(t, 4, NewLRU())
	for i := 0; i < 400; i++ {
		load(c, mem.LineAddr(i%4)+1)
	}
	st := c.Stats()
	if st.Misses[cache.DemandLoad] != 4 {
		t.Fatalf("fit working set: %d misses, want 4 cold", st.Misses[cache.DemandLoad])
	}
	c2 := singleSet(t, 4, NewLRU())
	for i := 0; i < 400; i++ {
		load(c2, mem.LineAddr(i%5)+1)
	}
	if h := c2.Stats().Hits[cache.DemandLoad]; h != 0 {
		t.Fatalf("thrash working set: %d hits, want 0", h)
	}
}

func TestLIPSurvivesThrash(t *testing.T) {
	// Insertion at LRU keeps part of a W+1 cyclic working set resident:
	// strictly more hits than LRU's zero. Set 1 of a 2-set DIP is a BIP
	// leader (Duel's stride is 2), which inserts at LRU all but 1/32 of
	// the time.
	c := newCache(t, 2*4*64, 4, NewDIP(1))
	for i := 0; i < 400; i++ {
		load(c, mem.LineAddr(2*(i%5)+1))
	}
	if h := c.Stats().Hits[cache.DemandLoad]; h == 0 {
		t.Fatal("BIP leader set gained no hits on thrashing pattern")
	}
}

func TestBIPSurvivesThrash(t *testing.T) {
	// Set 1 of a 2-set DIP is a BIP leader (Duel's stride is 2). Four
	// stale lines fill it, then a 6-line cycle thrashes it: insertion at
	// LRU alone would keep the stale lines forever and never hit, while
	// BIP's occasional MRU insertion lets the cycle take over the set.
	c := newCache(t, 2*4*64, 4, NewDIP(1))
	for i := 0; i < 4; i++ {
		load(c, mem.LineAddr(2*i+1))
	}
	before := c.Stats().Hits[cache.DemandLoad]
	for i := 0; i < 2000; i++ {
		load(c, mem.LineAddr(2*(100+i%6)+1))
	}
	if h := c.Stats().Hits[cache.DemandLoad] - before; h == 0 {
		t.Fatal("BIP leader set gained no hits on thrashing pattern")
	}
}

func TestDIPAdaptsBothWays(t *testing.T) {
	// LRU-friendly pattern: DIP must match plain LRU closely.
	dip := NewDIP(3)
	c := newCache(t, 4096, 4, dip) // 16 sets
	lru := NewLRU()
	cl := newCache(t, 4096, 4, lru)
	for i := 0; i < 50000; i++ {
		line := mem.LineAddr(i % 48) // fits: 48 lines < 64 capacity
		load(c, line)
		load(cl, line)
	}
	dh := c.Stats().Hits[cache.DemandLoad]
	lh := cl.Stats().Hits[cache.DemandLoad]
	if float64(dh) < 0.95*float64(lh) {
		t.Fatalf("DIP on LRU-friendly load: %d hits vs LRU %d", dh, lh)
	}

	// Thrashing pattern: DIP must beat LRU (which gets ~0 hits).
	dip2 := NewDIP(3)
	c2 := newCache(t, 4096, 4, dip2)
	cl2 := newCache(t, 4096, 4, NewLRU())
	for i := 0; i < 50000; i++ {
		line := mem.LineAddr(i % 80) // 80 lines > 64-line capacity, cyclic
		load(c2, line)
		load(cl2, line)
	}
	dh2 := c2.Stats().Hits[cache.DemandLoad]
	lh2 := cl2.Stats().Hits[cache.DemandLoad]
	if dh2 <= lh2 {
		t.Fatalf("DIP on thrashing load: %d hits vs LRU %d", dh2, lh2)
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// Hot lines re-referenced every rep, interleaved with a short burst of
	// fresh scan lines. LRU loses the hot lines to the burst; SRRIP keeps
	// them at RRPV 0 and sacrifices scan lines instead. The only set of a
	// 1-set DRRIP is an SRRIP leader.
	run := func(p cache.Policy) uint64 {
		c := singleSet(t, 4, p)
		next := mem.LineAddr(1000)
		for rep := 0; rep < 500; rep++ {
			load(c, 1)
			load(c, 2)
			load(c, 1)
			load(c, 2)
			for b := 0; b < 3; b++ {
				load(c, next)
				next++
			}
		}
		return c.Stats().Hits[cache.DemandLoad]
	}
	srrip := run(NewDRRIP(DefaultRRPVBits, 5))
	lru := run(NewLRU())
	if srrip <= lru {
		t.Fatalf("SRRIP hits %d <= LRU hits %d on scan+reuse mix", srrip, lru)
	}
}

func TestDRRIPNotWorseThanBothComponents(t *testing.T) {
	// A thrashing phase (80 lines, 64-line capacity) then a fitting one
	// (48 fresh lines). LRU gets nothing from the first; insertion at long
	// RRPV alone would keep the first phase's hit lines at RRPV 0 forever
	// and miss the whole second.
	mixed := func(p cache.Policy) uint64 {
		c := newCache(t, 4096, 4, p)
		for i := 0; i < 30000; i++ {
			load(c, mem.LineAddr(i%80))
		}
		for i := 0; i < 30000; i++ {
			load(c, mem.LineAddr(1024+i%48))
		}
		return c.Stats().Hits[cache.DemandLoad]
	}
	dr := mixed(NewDRRIP(DefaultRRPVBits, 5))
	lru := mixed(NewLRU())
	if dr <= lru {
		t.Fatalf("DRRIP hits %d <= LRU %d", dr, lru)
	}
}

func TestSHiPLearnsDeadPC(t *testing.T) {
	// One PC streams never-reused lines; another reuses a hot set. SHiP
	// should protect the hot set better than SRRIP alone, or at least
	// never panic and keep counters in range.
	p := NewSHiP(DefaultRRPVBits, 10, 6)
	c := newCache(t, 4096, 4, p)
	deadPC := mem.Addr(0x1000)
	hotPC := mem.Addr(0x2000)
	for rep := 0; rep < 200; rep++ {
		for pass := 0; pass < 2; pass++ { // re-reference hot lines within a rep
			for i := 0; i < 32; i++ {
				c.Access(mem.LineAddr(i), hotPC, cache.DemandLoad, 0)
			}
		}
		for i := 0; i < 256; i++ {
			c.Access(mem.LineAddr(10000+rep*256+i), deadPC, cache.DemandLoad, 0)
		}
	}
	if p.shct[p.Signature(deadPC)] != 0 {
		t.Fatalf("dead PC counter = %d, want 0", p.shct[p.Signature(deadPC)])
	}
	if p.shct[p.Signature(hotPC)] == 0 {
		t.Fatal("hot PC counter trained to 0")
	}
}

func TestDuelRoles(t *testing.T) {
	d := NewDuel(1024, 32, 10)
	var a, b, f int
	for s := 0; s < 1024; s++ {
		switch d.Role(s) {
		case LeaderA:
			a++
		case LeaderB:
			b++
		default:
			f++
		}
	}
	if a != 32 || b != 32 {
		t.Fatalf("leader counts a=%d b=%d, want 32/32", a, b)
	}
	if f != 1024-64 {
		t.Fatalf("follower count %d", f)
	}
}

func TestDuelSelection(t *testing.T) {
	d := NewDuel(1024, 32, 10)
	if !d.PolicyFor(0) {
		t.Fatal("leader-A set not pinned to A")
	}
	if d.PolicyFor(1) {
		t.Fatal("leader-B set not pinned to B")
	}
	// Hammer misses into A leaders: followers must switch to B.
	for i := 0; i < 2000; i++ {
		d.Miss(0)
	}
	if d.UseA() {
		t.Fatal("PSEL saturated against A but followers still use A")
	}
	if d.PolicyFor(2) {
		t.Fatal("follower did not switch to B")
	}
	// Now hammer B leaders: swing back.
	for i := 0; i < 4000; i++ {
		d.Miss(1)
	}
	if !d.UseA() {
		t.Fatal("followers did not swing back to A")
	}
}

func TestDuelPSELSaturates(t *testing.T) {
	d := NewDuel(64, 2, 4)
	for i := 0; i < 100; i++ {
		d.Miss(0)
	}
	if d.PSEL() != 15 {
		t.Fatalf("PSEL = %d, want 15", d.PSEL())
	}
	for i := 0; i < 100; i++ {
		d.Miss(1)
	}
	if d.PSEL() != 0 {
		t.Fatalf("PSEL = %d, want 0", d.PSEL())
	}
}

func TestWritebacksDoNotTrainDuel(t *testing.T) {
	dip := NewDIP(3)
	c := newCache(t, 4096, 4, dip)
	before := dip.Duel().PSEL()
	// Stream writebacks into a leader-A set (set 0): PSEL must not move.
	for i := 0; i < 100; i++ {
		c.Access(mem.LineAddr(i*16), 0, cache.Writeback, 0) // 16 sets → all map to set 0... i*16 % 16 == 0
	}
	if got := dip.Duel().PSEL(); got != before {
		t.Fatalf("writebacks moved PSEL from %d to %d", before, got)
	}
}
