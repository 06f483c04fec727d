package cache_test

import (
	"fmt"
	"testing"

	"rwp/internal/cache"
	"rwp/internal/core"
	"rwp/internal/mem"
	"rwp/internal/policy"
	"rwp/internal/probe"
	"rwp/internal/rrp"
	"rwp/internal/xrand"
)

// refCache is the differential oracle for cache.Cache's packed tag store:
// the model as it was before the layout was split, one LineState per way
// and a scan that reads the whole struct, plus every way's last PC, kept
// whether or not the level reports it. It is deliberately naive (no
// shared helpers with the real cache) so that a layout bug in one cannot
// hide in the other.
type refCache struct {
	cfg    cache.Config
	lines  []cache.LineState // sets*ways, row-major by set
	pcs    []mem.Addr        // PC that filled or last wrote each way
	policy cache.Policy
	stats  cache.Stats
}

func newRefCache(cfg cache.Config, p cache.Policy) *refCache {
	n := cfg.Sets() * cfg.Ways
	c := &refCache{cfg: cfg, lines: make([]cache.LineState, n), pcs: make([]mem.Addr, n), policy: p}
	p.Attach(c)
	return c
}

func (c *refCache) NumSets() int { return c.cfg.Sets() }
func (c *refCache) Ways() int    { return c.cfg.Ways }
func (c *refCache) State(set, way int) cache.LineState {
	return c.lines[set*c.cfg.Ways+way]
}

func (c *refCache) count(set int, pred func(cache.LineState) bool) int {
	n := 0
	for w := 0; w < c.cfg.Ways; w++ {
		if pred(c.State(set, w)) {
			n++
		}
	}
	return n
}

func (c *refCache) ValidWays(set int) int {
	return c.count(set, func(ls cache.LineState) bool { return ls.Valid })
}

func (c *refCache) DirtyWays(set int) int {
	return c.count(set, func(ls cache.LineState) bool { return ls.Valid && ls.Dirty })
}

func (c *refCache) InvalidWay(set int) int {
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.State(set, w).Valid {
			return w
		}
	}
	return -1
}

// lookup scans set for line. The set index is the caller's (the mapping
// from line to set is not part of the layout under test).
func (c *refCache) lookup(set int, line mem.LineAddr) (way int, ok bool) {
	for w := 0; w < c.cfg.Ways; w++ {
		if ls := c.State(set, w); ls.Valid && ls.Tag == line {
			return w, true
		}
	}
	return -1, false
}

func (c *refCache) access(set int, line mem.LineAddr, pc mem.Addr, class cache.Class, coreID int) cache.Result {
	ai := cache.AccessInfo{Line: line, PC: pc, Class: class, Core: coreID}
	dirtying := class == cache.Writeback || (class == cache.DemandStore && !c.cfg.StoreFillsClean)
	c.stats.Accesses[class]++
	way, ok := c.lookup(set, line)
	if ok {
		c.stats.Hits[class]++
		i := set*c.cfg.Ways + way
		ls := &c.lines[i]
		if ls.Dirty {
			c.stats.HitsDirty[class]++
		}
		if dirtying {
			ls.Dirty, c.pcs[i] = true, pc
		}
		c.policy.OnHit(set, way, ai)
		return cache.Result{Hit: true}
	}
	c.stats.Misses[class]++
	victim, bypass := c.policy.Victim(set, ai)
	if bypass {
		c.stats.Bypasses[class]++
		return cache.Result{Bypassed: true}
	}
	var res cache.Result
	i := set*c.cfg.Ways + victim
	ls := &c.lines[i]
	if ls.Valid {
		c.stats.Evictions++
		if ls.Dirty {
			c.stats.DirtyEvict++
			res = cache.Result{Writeback: true, WritebackLine: ls.Tag}
			if c.cfg.CarryWritebackPC {
				res.WritebackPC = c.pcs[i]
			}
		}
		c.policy.OnEvict(set, victim, ai)
	}
	*ls = cache.LineState{Tag: line, Valid: true, Dirty: dirtying}
	c.pcs[i] = pc
	c.stats.Fills++
	if dirtying {
		c.stats.FillsDirty[class]++
	}
	c.policy.OnFill(set, victim, ai)
	return res
}

func (c *refCache) invalidate(set int, line mem.LineAddr) (wasDirty, wasPresent bool) {
	way, ok := c.lookup(set, line)
	if !ok {
		return false, false
	}
	ls := &c.lines[set*c.cfg.Ways+way]
	dirty := ls.Dirty
	c.stats.Evictions++
	if dirty {
		c.stats.DirtyEvict++
	}
	c.policy.OnEvict(set, way, cache.AccessInfo{Line: line})
	*ls = cache.LineState{}
	return dirty, true
}

// eventLog is a probe that keeps the exact sequence of policy events.
// Every event type is a comparable struct, so two logs compare with ==.
type eventLog struct{ events []any }

func (l *eventLog) add(ev any)                         { l.events = append(l.events, ev) }
func (l *eventLog) Window() uint64                     { return 0 }
func (l *eventLog) Retarget(ev probe.RetargetEvent)    { l.add(ev) }
func (l *eventLog) Policy(ev probe.PolicyEvent)        { l.add(ev) }
func (l *eventLog) IntervalEnd(ev probe.IntervalEvent) { l.add(ev) }

func attach(p cache.Policy, l *eventLog) {
	if in, ok := p.(probe.Instrumentable); ok {
		in.SetProbe(l)
	}
}

// oraclePolicies builds a fresh instance of each policy under test. RWP
// and RRP get short intervals so repartitioning and predictor training
// happen many times within a test-sized stream.
var oraclePolicies = map[string]func() cache.Policy{
	"lru": func() cache.Policy { return policy.NewLRU() },
	"rwp": func() cache.Policy {
		cfg := core.DefaultConfig()
		cfg.SamplerSets, cfg.Interval = 8, 512
		return core.New(cfg)
	},
	"rrp": func() cache.Policy { return rrp.New(rrp.DefaultConfig()) },
}

// sameSet compares everything a policy can read about one set.
func sameSet(t *testing.T, op int, got *cache.Cache, want *refCache, set int) {
	t.Helper()
	if g, w := got.ValidWays(set), want.ValidWays(set); g != w {
		t.Fatalf("op %d set %d: ValidWays %d, reference %d", op, set, g, w)
	}
	if g, w := got.DirtyWays(set), want.DirtyWays(set); g != w {
		t.Fatalf("op %d set %d: DirtyWays %d, reference %d", op, set, g, w)
	}
	if g, w := got.InvalidWay(set), want.InvalidWay(set); g != w {
		t.Fatalf("op %d set %d: InvalidWay %d, reference %d", op, set, g, w)
	}
	for way := 0; way < want.Ways(); way++ {
		if g, w := got.State(set, way), want.State(set, way); g != w {
			t.Fatalf("op %d set %d way %d: State %+v, reference %+v", op, set, way, g, w)
		}
	}
}

// stream yields the line of op number op.
type stream func(rng *xrand.RNG, op int) mem.LineAddr

// uniformStream draws lines from three times the capacity, so sets fill,
// evict and refill; every seventh op is line 0, which equals an invalid
// way's zero tag.
func uniformStream(cfg cache.Config) stream {
	universe := 3 * cfg.Sets() * cfg.Ways
	return func(rng *xrand.RNG, op int) mem.LineAddr {
		if op%7 == 0 {
			return 0
		}
		return mem.LineAddr(rng.Intn(universe))
	}
}

// collidingStream draws lines from per-set pools of 2·ways+1 lines that
// all share their set's first line's fingerprint, so every resident way
// of a set matches a probe's flag byte and Lookup must settle each on
// the tag. Set 0's pool holds line 0 (an invalid way's tag), which every
// seventh op probes.
func collidingStream(t *testing.T, c *cache.Cache) stream {
	cfg := c.Config()
	sets := cfg.Sets()
	pools := make([][]mem.LineAddr, sets)
	for set := range pools {
		fp := c.Fingerprint(mem.LineAddr(set))
		for k := 0; len(pools[set]) < 2*cfg.Ways+1; k++ {
			if line := mem.LineAddr(set + k*sets); c.Fingerprint(line) == fp {
				pools[set] = append(pools[set], line)
			}
		}
	}
	if pools[0][0] != 0 {
		t.Fatalf("set 0's pool starts at line %v, want 0", pools[0][0])
	}
	return func(rng *xrand.RNG, op int) mem.LineAddr {
		if op%7 == 0 {
			return 0
		}
		pool := pools[rng.Intn(sets)]
		return pool[rng.Intn(len(pool))]
	}
}

// runOracle drives a cache.Cache under policy name and a refCache with
// the same seeded stream of accesses and invalidations and demands they
// never disagree: not in a Result, a Lookup, a counter, a policy's probe
// event, nor in any way's visible state. Every invalidation is followed
// by a Lookup of the invalidated line and of line 0 on both.
func runOracle(t *testing.T, cfg cache.Config, name string, ops int, seed uint64, lines func(*cache.Cache) stream) {
	t.Helper()
	gotPol, wantPol := oraclePolicies[name](), oraclePolicies[name]()
	got, err := cache.New(cfg, gotPol)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefCache(cfg, wantPol)
	gotLog, wantLog := &eventLog{}, &eventLog{}
	attach(gotPol, gotLog)
	attach(wantPol, wantLog)

	sameLookup := func(op int, line mem.LineAddr) {
		set, gw, gok := got.Lookup(line)
		ww, wok := want.lookup(set, line)
		if set != got.SetIndex(line) || gw != ww || gok != wok {
			t.Fatalf("op %d: Lookup(%v) = (%d,%d,%v), reference way %d present %v", op, line, set, gw, gok, ww, wok)
		}
	}
	next := lines(got)
	rng := xrand.New(seed)
	for op := 0; op < ops; op++ {
		line := next(rng, op)
		set := got.SetIndex(line)
		if rng.Intn(16) == 0 || (line == 0 && rng.Intn(4) == 0) {
			gd, gp := got.Invalidate(line)
			wd, wp := want.invalidate(set, line)
			if gd != wd || gp != wp {
				t.Fatalf("op %d: Invalidate(%v) = (%v,%v), reference (%v,%v)", op, line, gd, gp, wd, wp)
			}
			sameLookup(op, line)
			sameLookup(op, 0)
		} else {
			pc := mem.Addr(0x400000 + 4*rng.Intn(64))
			class := cache.Class(rng.Intn(3))
			coreID := rng.Intn(4)
			g, w := got.Access(line, pc, class, coreID), want.access(set, line, pc, class, coreID)
			if g != w {
				t.Fatalf("op %d: Access(%v,%v,%v,%d) = %+v, reference %+v", op, line, pc, class, coreID, g, w)
			}
			sameLookup(op, line)
		}
		if g, w := got.Stats(), want.stats; g != w {
			t.Fatalf("op %d: Stats %+v, reference %+v", op, g, w)
		}
		sameSet(t, op, got, want, set)
	}
	for set := 0; set < cfg.Sets(); set++ {
		sameSet(t, ops, got, want, set)
	}
	if len(gotLog.events) != len(wantLog.events) {
		t.Fatalf("%d probe events, reference %d", len(gotLog.events), len(wantLog.events))
	}
	for i := range gotLog.events {
		if gotLog.events[i] != wantLog.events[i] {
			t.Fatalf("probe event %d: %T%+v, reference %T%+v", i, gotLog.events[i], gotLog.events[i], wantLog.events[i], wantLog.events[i])
		}
	}
	st := got.Stats()
	if st.Evictions == 0 || st.DirtyEvict == 0 || st.TotalHits() == 0 ||
		st.HitsDirty[cache.DemandLoad] == 0 || st.FillsDirty[cache.Writeback] == 0 {
		t.Fatalf("stream exercised too little: %+v", st)
	}
}

// TestPackedTagStoreMatchesReference holds cache.Cache to the reference
// on a uniform stream over a 16-set, 8-way cache, under both store
// semantics, with and without writeback PCs.
func TestPackedTagStoreMatchesReference(t *testing.T) {
	for _, name := range []string{"lru", "rwp", "rrp"} {
		for _, storeFillsClean := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/storeFillsClean=%v", name, storeFillsClean), func(t *testing.T) {
				for _, carryPC := range []bool{false, true} {
					t.Run(fmt.Sprintf("carryWritebackPC=%v", carryPC), func(t *testing.T) {
						cfg := cache.Config{Name: "LLC", SizeBytes: 16 * 8 * 64, Ways: 8, LineSize: 64,
							StoreFillsClean: storeFillsClean, CarryWritebackPC: carryPC}
						runOracle(t, cfg, name, 40_000, 0x16_0000+uint64(len(name)), func(*cache.Cache) stream { return uniformStream(cfg) })
					})
				}
			})
		}
	}
}

// TestTagStoreGeometriesMatchReference holds Lookup's word-at-a-time
// flag scan to the reference where it is easiest to get wrong: sets
// narrower than a word, sets that end inside a word (the next set's
// flags, or the array's slack, share the last word read), the widest
// set, a one-set cache, and streams whose lines share a set and a
// fingerprint.
func TestTagStoreGeometriesMatchReference(t *testing.T) {
	for _, geo := range []struct{ sets, ways int }{
		{16, 1}, {16, 4}, {16, 8}, {8, 12}, {8, 20}, {4, 24}, {2, 256}, {1, 12},
	} {
		cfg := cache.Config{Name: "LLC", SizeBytes: geo.sets * geo.ways * 64, Ways: geo.ways, LineSize: 64, CarryWritebackPC: true}
		for _, name := range []string{"lru", "rwp", "rrp"} {
			seed := uint64(geo.sets<<16|geo.ways<<4) + uint64(len(name))
			t.Run(fmt.Sprintf("%dx%d/%s/uniform", geo.sets, geo.ways, name), func(t *testing.T) {
				runOracle(t, cfg, name, 8_000, seed, func(*cache.Cache) stream { return uniformStream(cfg) })
			})
			t.Run(fmt.Sprintf("%dx%d/%s/colliding", geo.sets, geo.ways, name), func(t *testing.T) {
				runOracle(t, cfg, name, 8_000, seed, func(c *cache.Cache) stream { return collidingStream(t, c) })
			})
		}
	}
}

// TestAccessDoesNotAllocate pins the layout's other promise: once a cache
// is built, an access (hit, miss, eviction, writeback) allocates nothing,
// under the baseline and under the paper's policy.
func TestAccessDoesNotAllocate(t *testing.T) {
	for _, name := range []string{"lru", "rwp"} {
		cfg := cache.Config{Name: "LLC", SizeBytes: 64 * 16 * 64, Ways: 16, LineSize: 64}
		c, err := cache.New(cfg, oraclePolicies[name]())
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(16)
		hot, universe := cfg.Sets()*cfg.Ways/2, 3*cfg.Sets()*cfg.Ways
		step := func() {
			for n := 0; n < 10_000; n++ {
				span := universe
				if n%2 == 0 {
					span = hot
				}
				c.Access(mem.LineAddr(rng.Intn(span)), mem.Addr(n%64)*4, cache.Class(n%3), 0)
			}
		}
		step() // warm: every set full, RWP past its first retarget
		if allocs := int(testing.AllocsPerRun(5, step)); allocs != 0 {
			t.Errorf("%s: %d allocs per 10k warm accesses, want 0", name, allocs)
		}
		if st := c.Stats(); st.DirtyEvict == 0 || st.TotalHits() == 0 {
			t.Fatalf("%s: stream exercised too little: %+v", name, st)
		}
	}
}
