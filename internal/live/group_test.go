package live

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rwp/internal/cache"
	"rwp/internal/mem"
	"rwp/internal/snap"
)

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
	ls := c.locate(HashKey("a"))
	way, ok := ls.find("a", mem.LineAddr(HashKey("a")))
	if !ok || ls.grp.tags.State(ls.idx, way).Dirty {
		t.Fatalf("key a: way %d, want a clean resident entry", way)
	}
	ls.grp.rwp.OnHit(ls.idx, way, cache.AccessInfo{Class: cache.DemandStore})
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "written bit") {
		t.Fatalf("CheckInvariants with a drifted written bit = %v, want a written-bit error", err)
	}
	assertUnlocked(t, c)
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

// TestValidateGroupGeometry: the predictor's sampler count is not a
// second knob, and the group clock cannot overflow.
func TestValidateGroupGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(c *Config)
		want string
	}{
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
	if c := mustNew(t, cfg); len(c.groups) != 1 || len(c.groups[0].sets) != cfg.Sets {
		t.Errorf("a %d-set cache is not one group", cfg.Sets)
	}
}
