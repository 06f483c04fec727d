package live

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rwp/internal/cache"
	"rwp/internal/core"
	"rwp/internal/mem"
	"rwp/internal/snap"
	"rwp/internal/xrand"
)

// TestGroupMatchesSimulatorCache proves the two set engines agree on a
// group: one seeded Get/Put stream confined to a single group runs
// through a live cache, and the equivalent (line, class) stream through
// an 8-set simulator cache under the configuration the group's own
// predictor runs under. After every op the two must have made the same
// decision — hit or miss, the way filled, whether the victim was dirty —
// and hold the same predictor: retarget count, dirty target, and at the
// end every histogram bucket and shadow-stack entry.
func TestGroupMatchesSimulatorCache(t *testing.T) {
	const ops, keyspace, first = 30_000, 72, 16 // the group at global sets [16, 24)
	cfg := DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = 64, 4, 2
	cfg.RWP.Interval = 16
	cfg.Loader = func(key string) []byte { return []byte("ld:" + key) }
	c := mustNew(t, cfg)
	gs := GroupSets(cfg.Sets)
	g := c.shards[0].sets[first].grp
	if g != &c.shards[0].groups[first/gs] || len(g.sets) != gs {
		t.Fatalf("sets [%d,%d) are not one group", first, first+gs)
	}

	simRWP := core.New(groupRWPConfig(cfg.RWP, gs))
	sim, err := cache.New(cache.Config{Name: "group", SizeBytes: gs * cfg.Ways * 64, Ways: cfg.Ways, LineSize: 64}, simRWP)
	if err != nil {
		t.Fatal(err)
	}

	var keys []string
	for i := 0; len(keys) < keyspace; i++ {
		key := fmt.Sprintf("key-%05d", i)
		if set := int(HashKey(key) & c.mask); set >= first && set < first+gs {
			keys = append(keys, key)
		}
	}
	rng := xrand.New(24)
	var dirtyEvictions, retargets uint64
	for i := 0; i < ops; i++ {
		key := keys[rng.Intn(len(keys))]
		// The line is the key hash on both sides; first is a multiple of
		// the group size, so the simulator's set index (the line's low
		// bits) is the set's index in its group.
		line := mem.LineAddr(HashKey(key))
		_, ls := c.locate(uint64(line))
		var hit bool
		var res cache.Result
		if rng.Intn(100) < 62 {
			_, hit = c.Get(key)
			res = sim.Access(line, 0, cache.DemandLoad, 0)
		} else {
			hit = !c.Put(key, []byte("v"))
			res = sim.Access(line, 0, cache.DemandStore, 0)
		}
		if hit != res.Hit {
			t.Fatalf("op %d %q: live hit %v, simulator hit %v", i, key, hit, res.Hit)
		}
		set, way, ok := sim.Lookup(line)
		if lway := ls.find(key, line); !ok || set != ls.idx || way != lway {
			t.Fatalf("op %d %q: live holds it at set %d way %d, simulator at set %d way %d (present %v)", i, key, ls.idx, lway, set, way, ok)
		}
		if res.Writeback {
			dirtyEvictions++
		}
		if got := c.StatsRange(first, first+gs).DirtyEvictions; got != dirtyEvictions {
			t.Fatalf("op %d %q: live has evicted %d dirty entries, simulator %d", i, key, got, dirtyEvictions)
		}
		if g.rwp.Intervals() != simRWP.Intervals() || g.rwp.TargetDirty() != simRWP.TargetDirty() {
			t.Fatalf("op %d: live at retarget %d target %d, simulator at retarget %d target %d",
				i, g.rwp.Intervals(), g.rwp.TargetDirty(), simRWP.Intervals(), simRWP.TargetDirty())
		}
		if n := g.rwp.Intervals(); n != retargets {
			// The group clock: every Interval ops per set, counted over the group.
			if at := uint64(i + 1); n != retargets+1 || at%(cfg.RWP.Interval*uint64(gs)) != 0 {
				t.Fatalf("op %d: retarget %d fired off the Interval x %d group clock", i, n, gs)
			}
			retargets = n
		}
	}
	for set := 0; set < gs; set++ {
		for way := 0; way < cfg.Ways; way++ {
			if l, s := g.State(set, way), sim.State(set, way); l.Tag != s.Tag || l.Valid != s.Valid || l.Dirty != s.Dirty {
				t.Errorf("set %d way %d: live %+v, simulator %+v", set, way, l, s)
			}
		}
	}
	if l, s := g.rwp.ExportState(), simRWP.ExportState(); !reflect.DeepEqual(l, s) {
		t.Errorf("predictor state differs:\nlive      %+v\nsimulator %+v", l, s)
	}
	up, down, _ := g.rwp.RetargetDirs()
	if retargets < 100 || up == 0 || down == 0 || dirtyEvictions == 0 {
		t.Errorf("stream is vacuous: %d retargets (%d up, %d down), %d dirty evictions", retargets, up, down, dirtyEvictions)
	}
	if s := c.Stats(); s.Retargets != retargets {
		t.Errorf("a stream confined to one group retargeted another: %d in all, %d in the group", s.Retargets, retargets)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsHoldsWrittenBits: a way whose RWP written bit has
// drifted from its entry's dirty bit — here a clean resident entry the
// policy is told was written — fails CheckInvariants, naming the way.
func TestCheckInvariantsHoldsWrittenBits(t *testing.T) {
	cfg := tinyConfig("rwp")
	cfg.Loader = func(key string) []byte { return []byte("ld:" + key) }
	c := mustNew(t, cfg)
	c.Get("a")
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_, ls := c.locate(HashKey("a"))
	way := ls.find("a", mem.LineAddr(HashKey("a")))
	if way < 0 || ls.entries[way].dirty {
		t.Fatalf("key a: way %d, want a clean resident entry", way)
	}
	ls.grp.rwp.OnHit(ls.idx, way, cache.AccessInfo{Class: cache.DemandStore})
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "written bit") {
		t.Fatalf("CheckInvariants with a drifted written bit = %v, want a written-bit error", err)
	}
}

// TestRangesTakeWholeGroups: a range that splits a policy group is
// refused by every entry point that would read, reset, capture or
// replace half a predictor or half a ledger — by panic in process, by
// error where the range arrives from a peer — and the refused cache is
// untouched.
func TestRangesTakeWholeGroups(t *testing.T) {
	c := mustNew(t, rangeTestConfig())
	fillRangeTest(c, 5000)
	before := snap.Encode(c.Snapshot())

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "splits a 8-set policy group") {
				t.Errorf("%s on a split group: recovered %v, want a panic naming the group", name, r)
			}
		}()
		f()
	}
	for _, r := range [][2]int{{4, 16}, {8, 12}, {3, 5}} {
		lo, hi := r[0], r[1]
		mustPanic("ResetRange", func() { c.ResetRange(lo, hi) })
		mustPanic("SnapshotRange", func() { c.SnapshotRange(lo, hi) })
		if err := c.CheckRange(lo, hi); err == nil {
			t.Errorf("CheckRange(%d, %d) accepted a split group", lo, hi)
		}
		if _, err := c.SnapBytes(lo, hi); err == nil || !strings.Contains(err.Error(), "splits") {
			t.Errorf("SnapBytes(%d, %d) = %v, want a split-group error", lo, hi, err)
		}
		mustPanic("StatsRange", func() { c.StatsRange(lo, hi) })
	}

	// A snapshot cut down to half a group, in memory and through the
	// codec — to which one predictor over four sets is well formed: the
	// group size is this package's to check.
	s := c.SnapshotRange(8, 16)
	s.Hi, s.Records = 12, s.Records[:4]
	if _, err := c.RestoreRange(s); err == nil || !strings.Contains(err.Error(), "splits") {
		t.Errorf("RestoreRange of half a group = %v, want a split-group error", err)
	}
	if _, err := c.RestoreBytes(snap.Encode(s)); err == nil || !strings.Contains(err.Error(), "splits") {
		t.Errorf("RestoreBytes of half a group = %v, want a split-group error", err)
	}
	if !bytes.Equal(snap.Encode(c.Snapshot()), before) {
		t.Error("a refused range operation mutated the cache")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateGroupGeometry: a shard must hold whole groups, and the
// predictor's sampler count is not a second knob.
func TestValidateGroupGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(c *Config)
		want string
	}{
		{"shards splitting a group", func(c *Config) { c.Sets, c.Shards = 256, 64 }, "4 sets per shard, not a multiple of the 8-set policy group"},
		{"a shard per set", func(c *Config) { c.Sets, c.Shards = 4, 4 }, "1 sets per shard, not a multiple of the 4-set policy group"},
		{"two samplers", func(c *Config) { c.RWP.SamplerSets = 2 }, "SamplerSets 2 must be 1"},
		{"interval overflowing the group clock", func(c *Config) { c.RWP.Interval = 1 << 62 }, "overflows the group clock"},
	} {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// LRU has no sampler to count, and a cache smaller than a group is
	// one group.
	cfg := DefaultConfig()
	cfg.Policy, cfg.RWP.SamplerSets = "lru", 32
	if err := cfg.Validate(); err != nil {
		t.Errorf("lru with an unused RWP config: %v", err)
	}
	cfg = tinyConfig("rwp")
	if c := mustNew(t, cfg); len(c.shards[0].groups) != 1 || len(c.shards[0].groups[0].sets) != cfg.Sets {
		t.Errorf("a %d-set cache is not one group", cfg.Sets)
	}
}
