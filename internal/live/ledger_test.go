package live

import (
	"reflect"
	"strings"
	"testing"

	"rwp/internal/snap"
)

// sentinelCounters sets every Counters field, by reflection, to a
// distinct value — so a path that drops or swaps a field shows up no
// matter which field it is.
func sentinelCounters(t *testing.T) Counters {
	t.Helper()
	var c Counters
	rv := reflect.ValueOf(&c).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetUint(uint64(1000 + i))
	}
	return c
}

// TestCountersEnumeration is the one-declaration guard: Counters.fields
// visits every field of Counters exactly once, and every field is a
// uint64. A counter declared without its row fails here, not in a cmp
// gate three layers up.
func TestCountersEnumeration(t *testing.T) {
	var c Counters
	rv := reflect.ValueOf(&c).Elem()
	if rv.NumField() != numCounters {
		t.Fatalf("Counters declares %d fields, numCounters is %d", rv.NumField(), numCounters)
	}
	fields := c.fields()
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		if rv.Field(i).Kind() != reflect.Uint64 {
			t.Errorf("Counters.%s is %s, want uint64", name, rv.Field(i).Kind())
			continue
		}
		visits := 0
		for _, f := range fields {
			if f == rv.Field(i).Addr().Interface().(*uint64) {
				visits++
			}
		}
		if visits != 1 {
			t.Errorf("fields() visits Counters.%s %d times, want exactly once", name, visits)
		}
	}
}

// TestCountersCoverage: everything that copies, sums or clears the
// ledger — Stats aggregation, Stats.Add, the snapshot vector through
// the wire encoding and back into a group, ResetStats — carries every
// counter and every cost-table cell, checked with a distinct sentinel
// per field.
func TestCountersCoverage(t *testing.T) {
	want := sentinelCounters(t)
	double := want
	double.add(want)
	var wantCosts costTable
	for part := range wantCosts {
		for class := range wantCosts[part] {
			wantCosts[part][class] = uint64(2000 + 10*part + class)
		}
	}

	c := mustNew(t, tinyConfig("rwp"))
	c.groups[0].ops = want
	c.groups[0].costs = wantCosts

	if got := c.Stats().Counters; got != want {
		t.Errorf("Stats dropped a counter:\ngot  %+v\nwant %+v", got, want)
	}
	var sum Stats
	sum.Add(c.Stats())
	sum.Add(c.StatsRange(0, c.Sets()))
	if sum.Counters != double {
		t.Errorf("Stats.Add dropped a counter:\ngot  %+v\nwant %+v", sum.Counters, double)
	}

	s, err := snap.Decode(snap.Encode(c.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	// Sentinels break the conservation laws on purpose, so go around
	// checkSnapshot: this is about the vector, not its validation.
	if len(s.Groups[0].Ops) != ledgerLen {
		t.Fatalf("ledger vector holds %d cells, want %d", len(s.Groups[0].Ops), ledgerLen)
	}
	var g group
	g.setLedger(s.Groups[0].Ops)
	if g.ops != want {
		t.Errorf("snapshot round trip dropped a counter:\ngot  %+v\nwant %+v", g.ops, want)
	}
	if g.costs != wantCosts {
		t.Errorf("snapshot round trip dropped a cost cell:\ngot  %v\nwant %v", g.costs, wantCosts)
	}
	if got := c.Stats(); !reflect.DeepEqual(got.CostHistClean, wantCosts.hist(partClean)) || !reflect.DeepEqual(got.CostHistDirty, wantCosts.hist(partDirty)) {
		t.Errorf("Stats dropped a cost cell: clean %v dirty %v, want table %v", got.CostHistClean, got.CostHistDirty, wantCosts)
	}

	c.ResetStats()
	if got := c.Stats().Counters; got != (Counters{}) {
		t.Errorf("ResetStats left a counter standing: %+v", got)
	}
}

// lawAbiding satisfies every law in Counters.check, the miss-resolution
// inequality with equality (a set at rest), so each lawBreakers mutation
// below breaks exactly the one law it names.
var lawAbiding = Counters{
	Gets: 20, GetHits: 12, GetMisses: 8,
	Puts: 10, PutHits: 4, PutInserts: 6,
	Loads: 3, LoadRaces: 1, LoadAbsents: 1, CoalescedLoads: 1, NegHits: 1, NegInserts: 1,
	LeaseExpires: 2,
	Fills:        9, FillsDirty: 6,
	Evictions: 5, DirtyEvictions: 2,
	GetHitsClean: 7, GetHitsDirty: 5,
	PutHitsClean: 1, PutHitsDirty: 3,
}

// lawBreakers is one mutation per law (per term, where a law sums
// several), each relative to the value it is applied to, with the
// fragment of check's message that names the law it must trip.
var lawBreakers = []struct {
	name string
	mut  func(c *Counters)
	want string
}{
	{"get split", func(c *Counters) { c.Gets++ }, "get split"},
	{"put split", func(c *Counters) { c.Puts++ }, "put split"},
	{"get-hit split, clean side", func(c *Counters) { c.GetHitsClean++ }, "get-hit partition split"},
	{"get-hit split, dirty side", func(c *Counters) { c.GetHitsDirty++ }, "get-hit partition split"},
	{"put-hit split, clean side", func(c *Counters) { c.PutHitsClean++ }, "put-hit partition split"},
	{"put-hit split, dirty side", func(c *Counters) { c.PutHitsDirty++ }, "put-hit partition split"},
	{"fills exceed their sources", func(c *Counters) { c.Fills++ }, "fills"},
	{"loads exceed fills", func(c *Counters) { c.Loads = c.Fills + 1 }, "fills"},
	{"dirty fills exceed fills", func(c *Counters) { c.FillsDirty = c.Fills + 1 }, "more dirty fills"},
	{"dirty evictions exceed evictions", func(c *Counters) { c.DirtyEvictions = c.Evictions + 1 }, "more dirty evictions"},
	// One per term of the miss-resolution sum. Loads is also a source of
	// Fills, so that pair moves together.
	{"unmissed load", func(c *Counters) { c.Loads++; c.Fills++ }, "resolved misses"},
	{"unmissed load race", func(c *Counters) { c.LoadRaces++ }, "resolved misses"},
	{"unmissed absent load", func(c *Counters) { c.LoadAbsents++ }, "resolved misses"},
	{"unmissed coalesced load", func(c *Counters) { c.CoalescedLoads++ }, "resolved misses"},
	{"unmissed negative hit", func(c *Counters) { c.NegHits++ }, "resolved misses"},
	{"unmissed negative insert", func(c *Counters) { c.NegInserts++ }, "resolved misses"},
}

// TestCountersLaws: Counters.check accepts the law-abiding value and
// refuses each single-law violation, naming that law — so dropping or
// loosening one case of check fails here.
func TestCountersLaws(t *testing.T) {
	if err := lawAbiding.check(); err != nil {
		t.Fatalf("law-abiding counters rejected: %v", err)
	}
	for _, tc := range lawBreakers {
		c := lawAbiding
		tc.mut(&c)
		if err := c.check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check() = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestRestoreRejectsBrokenLaws runs the same violations through the
// three restore entry points (RestoreBytes after a trip through the
// codec, to which the vector is opaque): checkSnapshot refuses each one
// by its law, and the target is left untouched.
func TestRestoreRejectsBrokenLaws(t *testing.T) {
	src := mustNew(t, tinyConfig("rwp"))
	src.Put("k", []byte("v"))
	src.groups[0].ops = lawAbiding

	target := mustNew(t, tinyConfig("rwp"))
	if _, err := target.RestoreBytes(snap.Encode(src.Snapshot())); err != nil {
		t.Fatalf("law-abiding snapshot rejected: %v", err)
	}
	before := snap.Encode(target.Snapshot())

	for _, tc := range lawBreakers {
		s := src.Snapshot()
		broken := group{ops: countersFromVector(s.Groups[0].Ops)}
		tc.mut(&broken.ops)
		s.Groups[0].Ops = broken.ledger()

		_, rangeErr := target.RestoreRange(s)
		_, bytesErr := target.RestoreBytes(snap.Encode(s))
		for entry, err := range map[string]error{
			"RestoreSnapshot": target.RestoreSnapshot(s),
			"RestoreRange":    rangeErr,
			"RestoreBytes":    bytesErr,
		} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s = %v, want an error naming %q", tc.name, entry, err, tc.want)
			}
		}
		if !reflect.DeepEqual(snap.Encode(target.Snapshot()), before) {
			t.Fatalf("%s: a rejected restore mutated the cache", tc.name)
		}
	}
}

// TestCostClasses pins what the cost table's layout assumes: class
// costs strictly ascending (a table row read in index order is a sorted
// histogram) and the two defense answers sharing the hit class's cost.
func TestCostClasses(t *testing.T) {
	for class := 1; class < len(classCost); class++ {
		if classCost[class] <= classCost[class-1] {
			t.Errorf("classCost[%d]=%d not above classCost[%d]=%d", class, classCost[class], class-1, classCost[class-1])
		}
	}
	for _, cost := range []int{CostCoalesced, CostNegHit} {
		if cost != classCost[classHit] {
			t.Errorf("a defense answer costing %d is charged as classHit (%d)", cost, classCost[classHit])
		}
	}
}
