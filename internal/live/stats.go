package live

import (
	"errors"
	"fmt"

	"rwp/internal/core"
	"rwp/internal/probe"
)

// Counters are the per-group operation counters: the one block a live
// cache operation writes. Every field is a sum over events, so
// aggregating them across groups is order-independent — the root of
// the stats document's determinism. Everything else the cache
// reports (merged documents, snapshots) is derived from these and the
// group's cost table when somebody reads.
//
// Adding a counter is one declaration here plus its row in fields and
// numCounters (the compiler rejects a row beyond numCounters,
// TestCountersEnumeration a field without a row); every counter
// appears in the stats document.
type Counters struct {
	Gets           uint64 // Get operations
	GetHits        uint64
	GetMisses      uint64
	Puts           uint64 // Put operations
	PutHits        uint64 // overwrites of a resident key
	PutInserts     uint64 // write-allocate fills
	Loads          uint64 // backing-store fetches installed as fills (read-allocate)
	LoadRaces      uint64 // fetches discarded because a writer installed the key first
	LoadAbsents    uint64 // fetches the backing store answered "no such key": nothing installed, miss returned
	CoalescedLoads uint64 // misses served by another Get's in-flight or just-landed fill (no Loader call of their own)
	NegHits        uint64 // misses answered by the negative cache (no Loader call)
	NegInserts     uint64 // Loader misses recorded in the negative cache instead of filled
	LeaseExpires   uint64 // fill leases deposed after LeaseOps set ops (waiter re-fetched)
	Fills          uint64
	FillsDirty     uint64
	Evictions      uint64
	DirtyEvictions uint64
	// The hit totals split by the line's dirty bit before the op: which
	// partition, clean or dirty, served each hit. Each pair sums to its
	// total (GetHits, PutHits).
	GetHitsClean uint64
	GetHitsDirty uint64
	PutHitsClean uint64
	PutHitsDirty uint64
}

// numCounters is how many counters lead a group's ledger vector.
const numCounters = 21

// ledgerLen is the length of a group's ledger vector in a snapshot: the
// counters in fields order, then the cost table's cells, clean row
// first, each row in class order.
const ledgerLen = numCounters + 2*int(numCostClasses)

// fields enumerates every counter exactly once. The order is the
// snapshot vector's (schema rwp-snap-v5): a new counter means a new
// schema.
func (c *Counters) fields() [numCounters]*uint64 {
	return [numCounters]*uint64{
		&c.Gets, &c.GetHits, &c.GetMisses,
		&c.Puts, &c.PutHits, &c.PutInserts,
		&c.Loads, &c.LoadRaces,
		&c.LoadAbsents, &c.CoalescedLoads, &c.NegHits, &c.NegInserts, &c.LeaseExpires,
		&c.Fills, &c.FillsDirty,
		&c.Evictions, &c.DirtyEvictions,
		&c.GetHitsClean, &c.GetHitsDirty,
		&c.PutHitsClean, &c.PutHitsDirty,
	}
}

// add accumulates o into c.
func (c *Counters) add(o Counters) {
	dst, src := c.fields(), o.fields()
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// ledger renders the group's counters and cost table as the snapshot's
// opaque vector.
func (g *group) ledger() []uint64 {
	v := make([]uint64, 0, ledgerLen)
	for _, f := range g.ops.fields() {
		v = append(v, *f)
	}
	for part := range g.costs {
		v = append(v, g.costs[part][:]...)
	}
	return v
}

// setLedger is ledger's inverse; the caller has checked the length
// (checkSnapshot).
func (g *group) setLedger(v []uint64) {
	g.ops = countersFromVector(v)
	cells := v[numCounters:]
	for part := range g.costs {
		cells = cells[copy(g.costs[part][:], cells):]
	}
}

// countersFromVector reads the counters leading a ledger vector.
func countersFromVector(v []uint64) Counters {
	var c Counters
	for i, f := range c.fields() {
		*f = v[i]
	}
	return c
}

// check is the one statement of the counter conservation laws, shared
// by CheckInvariants (live groups) and checkSnapshot (restore input).
// Each asserted pair is updated inside a single lock hold on the
// operation paths, so the equalities hold at every instant a group can
// be observed under its lock, concurrent load or not; the
// miss-resolution law alone is an inequality, because a miss is counted
// when it probes but resolved (Loads / LoadRaces / LoadAbsents /
// CoalescedLoads / NegHits / NegInserts) only after its unlocked Loader
// window closes.
func (c *Counters) check() error {
	switch {
	case c.GetHits+c.GetMisses != c.Gets:
		return fmt.Errorf("get split %d+%d != %d", c.GetHits, c.GetMisses, c.Gets)
	case c.PutHits+c.PutInserts != c.Puts:
		return fmt.Errorf("put split %d+%d != %d", c.PutHits, c.PutInserts, c.Puts)
	case c.GetHitsClean+c.GetHitsDirty != c.GetHits:
		return errors.New("get-hit partition split does not sum to GetHits")
	case c.PutHitsClean+c.PutHitsDirty != c.PutHits:
		return errors.New("put-hit partition split does not sum to PutHits")
	case c.Fills != c.PutInserts+c.Loads:
		return fmt.Errorf("fills %d != put-inserts %d + loads %d", c.Fills, c.PutInserts, c.Loads)
	case c.FillsDirty > c.Fills:
		return errors.New("more dirty fills than fills")
	case c.DirtyEvictions > c.Evictions:
		return errors.New("more dirty evictions than evictions")
	case c.Loads+c.LoadRaces+c.LoadAbsents+c.CoalescedLoads+c.NegHits+c.NegInserts > c.GetMisses:
		return fmt.Errorf("resolved misses %d+%d+%d+%d+%d+%d exceed GetMisses %d",
			c.Loads, c.LoadRaces, c.LoadAbsents, c.CoalescedLoads, c.NegHits, c.NegInserts, c.GetMisses)
	}
	return nil
}

// ReadHitRate returns GetHits/Gets (0 when no Gets) — the quantity RWP
// raises over LRU.
func (c Counters) ReadHitRate() float64 {
	if c.Gets == 0 {
		return 0
	}
	return float64(c.GetHits) / float64(c.Gets)
}

// Stats is a point-in-time aggregate over every set.
type Stats struct {
	Counters
	// Entries and DirtyEntries are the current occupancy totals.
	Entries      int
	DirtyEntries int
	// Retargets counts RWP repartitionings summed over all groups (0
	// for LRU).
	Retargets uint64
	// TargetHist[d] counts the sets whose group's current
	// dirty-partition target is d ways (nil for LRU).
	TargetHist []uint64
	// RetargetUp/Down/Same split Retargets by decision direction
	// (raised, lowered, or kept the dirty target); their sum equals
	// Retargets. Zero for LRU.
	RetargetUp   uint64
	RetargetDown uint64
	RetargetSame uint64
	// CostHistClean and CostHistDirty are the histograms of modeled
	// per-op service costs (see the Cost* constants), exact and sparse,
	// by the partition that served or received each op: Get hits by the
	// line's dirty bit, all other Gets clean (a read miss is or would be
	// a clean fill), all Puts dirty (a write dirties the line). This is
	// what lets the restart benchmark show dirty-eviction cost recovery
	// per partition. CostHist is their bucket-wise sum, computed when the
	// aggregate is read. Bucket-wise merging is commutative, so all three
	// aggregate order-independently like every other field; percentiles
	// come from probe.CostHist.Percentile.
	CostHist      probe.CostHist
	CostHistClean probe.CostHist
	CostHistDirty probe.CostHist
}

// Add accumulates o into s field by field. Every component is an
// order-independent sum (TargetHist adds element-wise; a nil histogram
// on either side is treated as all-zero), so merging per-range or
// per-node snapshots in any order yields the same aggregate — the
// property the cluster layer's merged stats document rests on.
func (s *Stats) Add(o Stats) {
	s.Counters.add(o.Counters)
	s.Entries += o.Entries
	s.DirtyEntries += o.DirtyEntries
	s.Retargets += o.Retargets
	if o.TargetHist != nil {
		if s.TargetHist == nil {
			s.TargetHist = make([]uint64, len(o.TargetHist))
		}
		for d := range o.TargetHist {
			s.TargetHist[d] += o.TargetHist[d]
		}
	}
	s.RetargetUp += o.RetargetUp
	s.RetargetDown += o.RetargetDown
	s.RetargetSame += o.RetargetSame
	s.CostHist.Add(o.CostHist)
	s.CostHistClean.Add(o.CostHistClean)
	s.CostHistDirty.Add(o.CostHistDirty)
}

// addGroup accumulates one group's ledger, its sets' occupancy and its
// predictor rwp (Cache.predictor; nil under LRU) into s, and its cost
// table into costs. Called with the group's lock held.
func (s *Stats) addGroup(g *group, rwp *core.RWP, costs *costTable) {
	s.Counters.add(g.ops)
	costs.add(&g.costs)
	if g.tags != nil {
		s.Entries += g.tags.TotalValid()
		s.DirtyEntries += g.tags.TotalDirty()
	}
	if rwp != nil {
		s.Retargets += rwp.Intervals()
		s.TargetHist[rwp.TargetDirty()] += uint64(len(g.sets))
		up, down, same := rwp.RetargetDirs()
		s.RetargetUp += up
		s.RetargetDown += down
		s.RetargetSame += same
	}
}

// Stats aggregates the per-group ledgers and policy state. It locks one
// group at a time, so under concurrent load the aggregate is a
// consistent sum of per-group snapshots, not a global atomic snapshot.
func (c *Cache) Stats() Stats { return c.StatsRange(0, c.cfg.Sets) }

// StatsRange aggregates exactly the global sets in [lo, hi). The
// cluster layer assigns each ring shard a contiguous set range, so a
// node's contribution to the merged cluster stats is the sum of
// StatsRange over the shards it serves; summing every shard's range
// over its serving node covers each set exactly once, which makes the
// merged Stats of a replication-factor-1 cluster equal the single-node
// Stats field for field (untouched sets contribute identically on
// both sides). The ledger is kept per policy group, so like ResetRange
// it panics if the range is out of bounds or splits a group; ring
// ranges never do (cluster.New refuses such a ring).
func (c *Cache) StatsRange(lo, hi int) Stats {
	if err := c.CheckRange(lo, hi); err != nil {
		panic("live: StatsRange: " + err.Error())
	}
	var s Stats
	if c.cfg.Policy == "rwp" {
		s.TargetHist = make([]uint64, c.cfg.Ways+1)
	}
	var costs costTable
	c.eachGroup(lo, hi, func(g *group, _ int) { s.addGroup(g, c.predictor(g), &costs) })
	s.CostHistClean = costs.hist(partClean)
	s.CostHistDirty = costs.hist(partDirty)
	s.CostHist.Add(s.CostHistClean)
	s.CostHist.Add(s.CostHistDirty)
	return s
}

// ResetStats zeroes the operation counters and cost tables (e.g. after
// warmup), leaving cache contents, policy state and the sets' clocks
// untouched — the same warmup/measure split the simulator uses. A
// negative-cache verdict or a fill lease in flight keeps its window.
func (c *Cache) ResetStats() {
	c.eachGroup(0, c.cfg.Sets, func(g *group, _ int) {
		g.ops = Counters{}
		g.costs = costTable{}
	})
}
