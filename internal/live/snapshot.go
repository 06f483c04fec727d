package live

import (
	"fmt"

	"rwp/internal/cache"
	"rwp/internal/core"
	"rwp/internal/mem"
	"rwp/internal/policy"
	"rwp/internal/recency"
	"rwp/internal/snap"
)

// This file is the live cache's half of the warm-restart subsystem
// (internal/snap holds the format). Two restore semantics exist on
// purpose:
//
//   - RestoreSnapshot is the full warm restart: entries, policy state
//     and the groups' ledgers (counters, cost tables), so the restored
//     server's /stats document and all future behavior are
//     byte-identical to a never-restarted run.
//   - RestoreRange is cluster replica catch-up: entries and policy
//     state only, for the snapshot's set range. The target node keeps
//     its own counters — they are its cumulative history, the ops that
//     node served. Copying the primary's would count the primary's ops
//     again in the replica's document.
//
// Restores validate the whole snapshot against the cache geometry
// before mutating anything, so a rejected snapshot leaves the cache
// exactly as it was — never partially restored. Snapshots and restores
// cover whole policy groups: a range that splits one is refused like an
// out-of-bounds one.
//
// Stampede-defense state: the defense counters (LoadAbsents,
// CoalescedLoads, NegHits, NegInserts, LeaseExpires) travel in the
// counter vector like every other counter. The negative cache and
// in-flight fillCalls deliberately do not, nor do the set clocks they
// are timed on (a window is a difference of clock readings, so a clock
// need not resume where it stopped). Both are transient op-clocked
// state, and starting them cold after a restore only means
// re-consulting the backend for a few keys; a stale absence verdict is
// never served. Consequently restart
// bit-equivalence is exact for NegOps == 0 configurations, and
// counter-conserving (never stale) otherwise; see DESIGN.md §16.
//
// Why the format can omit way indices: every fill (LRU's and RWP's
// Victim alike) takes the lowest invalid way first, so a set holding K
// entries has exactly ways 0..K-1 valid, and restore can replay the
// recorded MRU→LRU entries as OnFill calls into ways 0..K-1 (LRU
// first). OnFill bypasses the policy's observe() — the group's interval
// clock and sampler state transfer via core.State instead — and the
// fill class (DemandStore for dirty entries) reproduces RWP's written
// bits, which the live cache keeps equal to the entry dirty bits.

// Sets returns the global set count.
func (c *Cache) Sets() int { return c.cfg.Sets }

// Snapshot captures the whole cache as a restorable state snapshot.
// (The stats document is StatsSnapshot.)
func (c *Cache) Snapshot() *snap.Snapshot { return c.SnapshotRange(0, c.cfg.Sets) }

// SnapshotRange captures the global sets [lo, hi). It locks one shard
// at a time; under concurrent load the snapshot is a consistent
// per-set composite, not a global atomic point. It panics if the range
// is out of bounds or splits a policy group.
func (c *Cache) SnapshotRange(lo, hi int) *snap.Snapshot {
	if err := c.CheckRange(lo, hi); err != nil {
		panic("live: SnapshotRange: " + err.Error())
	}
	s := &snap.Snapshot{
		Policy: c.cfg.Policy,
		Sets:   c.cfg.Sets,
		Ways:   c.cfg.Ways,
		RWP:    c.cfg.RWP,
		Lo:     lo,
		Hi:     hi,
	}
	if hi > lo {
		s.Records = make([]snap.SetRecord, 0, hi-lo)
		s.Groups = make([]snap.GroupRecord, 0, (hi-lo)/GroupSets(c.cfg.Sets))
	}
	// Shards are contiguous ascending set ranges, so this emits set and
	// group records in ascending global-set order — the canonical order.
	c.eachGroup(lo, hi, func(g *group, base int) {
		for i := range g.sets {
			s.Records = append(s.Records, snapSet(base+i, &g.sets[i]))
		}
		s.Groups = append(s.Groups, snapGroup(g, c.predictor(g)))
	})
	return s
}

// snapSet captures one set's entries under its shard lock.
func snapSet(global int, ls *lset) snap.SetRecord {
	r := snap.SetRecord{Set: global}
	if ls.entries == nil {
		return r
	}
	tab := ls.grp.recency()
	for pos := 0; pos < len(ls.entries); pos++ {
		way := tab.At(ls.idx, pos)
		e := &ls.entries[way]
		if !e.valid {
			// Invalid ways sit together at the recency bottom; nothing
			// valid follows.
			break
		}
		r.Entries = append(r.Entries, snap.Entry{
			Key:   string(e.kv[:e.klen]),
			Value: append([]byte(nil), e.val()...),
			Dirty: e.dirty,
		})
	}
	return r
}

// snapGroup captures one group's ledger and, under RWP, its predictor
// rwp (Cache.predictor).
func snapGroup(g *group, rwp *core.RWP) snap.GroupRecord {
	r := snap.GroupRecord{Ops: g.ledger()}
	if rwp != nil {
		st := rwp.ExportState()
		r.RWP = &st
	}
	return r
}

// recency exposes the group's recency table for snapshot iteration.
func (g *group) recency() *recency.Table {
	if g.rwp != nil {
		return g.rwp.Recency()
	}
	return g.pol.(*policy.LRU).Recency()
}

// RestoreSnapshot performs a full warm restart from a whole-cache
// snapshot: entries, policy state, counters and cost tables. The
// snapshot must cover [0, Sets) and match the cache's policy, geometry,
// and RWP configuration exactly — restart equivalence is only
// meaningful against the same configuration. On error the cache is
// untouched.
func (c *Cache) RestoreSnapshot(s *snap.Snapshot) error {
	if s.Lo != 0 || s.Hi != c.cfg.Sets {
		return fmt.Errorf("live: restore covers sets [%d,%d), want the whole cache [0,%d)", s.Lo, s.Hi, c.cfg.Sets)
	}
	if err := c.checkSnapshot(s); err != nil {
		return err
	}
	c.applyRange(s, true)
	return nil
}

// RestoreRange installs a snapshot's entries and policy state for its
// set range [s.Lo, s.Hi), preserving this cache's own counters and
// cost histograms — the cluster catch-up semantics (ResetRange with
// the primary's warm state instead of cold sets). It returns the
// number of previously-resident entries dropped. On error the cache is
// untouched.
func (c *Cache) RestoreRange(s *snap.Snapshot) (purged int, err error) {
	if err := c.checkSnapshot(s); err != nil {
		return 0, err
	}
	return c.applyRange(s, false), nil
}

// checkSnapshot validates s against this cache completely — config
// match, whole-group coverage, per-set entry counts, key-to-set hashing,
// key uniqueness, one group record per group with a ledger vector of the
// right length that obeys the conservation laws, and under RWP a
// well-shaped predictor state in each — before any mutation. snap.Decode
// already enforces the format's self-contained invariants for
// snapshots read from bytes; in-memory snapshots get the same scrutiny
// here. Every restore entry point runs it, counters-preserving
// RestoreRange included: a record this cache could not have produced
// is not trusted for its entries either.
func (c *Cache) checkSnapshot(s *snap.Snapshot) error {
	if s.Policy != c.cfg.Policy || s.Sets != c.cfg.Sets || s.Ways != c.cfg.Ways {
		return fmt.Errorf("live: snapshot of %s %dx%d does not match cache %s %dx%d",
			s.Policy, s.Sets, s.Ways, c.cfg.Policy, c.cfg.Sets, c.cfg.Ways)
	}
	if s.Policy == "rwp" && s.RWP != c.cfg.RWP {
		return fmt.Errorf("live: snapshot RWP config %+v does not match cache %+v", s.RWP, c.cfg.RWP)
	}
	if err := c.CheckRange(s.Lo, s.Hi); err != nil {
		return err
	}
	if len(s.Records) != s.Hi-s.Lo {
		return fmt.Errorf("live: snapshot has %d records for range [%d,%d)", len(s.Records), s.Lo, s.Hi)
	}
	for i := range s.Records {
		r := &s.Records[i]
		if r.Set != s.Lo+i {
			return fmt.Errorf("live: snapshot record %d is set %d, want %d", i, r.Set, s.Lo+i)
		}
		if len(r.Entries) > c.cfg.Ways {
			return fmt.Errorf("live: set %d holds %d entries, cache has %d ways", r.Set, len(r.Entries), c.cfg.Ways)
		}
		for j := range r.Entries {
			e := &r.Entries[j]
			if g := int(HashKey(e.Key) & c.mask); g != r.Set {
				return fmt.Errorf("live: key %q hashes to set %d but was recorded in set %d", e.Key, g, r.Set)
			}
			for k := 0; k < j; k++ {
				if r.Entries[k].Key == e.Key {
					return fmt.Errorf("live: duplicate key %q in set %d", e.Key, r.Set)
				}
			}
		}
	}
	gs := GroupSets(c.cfg.Sets)
	if want := (s.Hi - s.Lo) / gs; len(s.Groups) != want {
		return fmt.Errorf("live: snapshot carries %d group records for range [%d,%d), want %d", len(s.Groups), s.Lo, s.Hi, want)
	}
	for i := range s.Groups {
		gr, at := &s.Groups[i], s.Lo+i*gs
		if len(gr.Ops) != ledgerLen {
			return fmt.Errorf("live: group at set %d carries a %d-cell ledger, want %d", at, len(gr.Ops), ledgerLen)
		}
		ops := countersFromVector(gr.Ops)
		if err := ops.check(); err != nil {
			return fmt.Errorf("live: group at set %d: %w", at, err)
		}
		switch {
		case c.cfg.Policy != "rwp" && gr.RWP != nil:
			return fmt.Errorf("live: group at set %d carries a predictor under %s", at, c.cfg.Policy)
		case c.cfg.Policy == "rwp" && gr.RWP == nil:
			return fmt.Errorf("live: group at set %d carries no predictor", at)
		case gr.RWP != nil:
			// A group's policy shadows its first set only: one sampler.
			if err := gr.RWP.Validate(c.cfg.Ways, 1); err != nil {
				return fmt.Errorf("live: group at set %d: %w", at, err)
			}
		}
	}
	return nil
}

// applyRange installs the (pre-validated) snapshot records. full also
// restores counters and cost histograms; catch-up keeps the target's.
// Infallible by construction: every failure mode was checked.
func (c *Cache) applyRange(s *snap.Snapshot, full bool) (purged int) {
	c.eachGroup(s.Lo, s.Hi, func(g *group, base int) {
		at, gs := base-s.Lo, len(g.sets)
		purged += restoreGroup(g, s.Records[at:at+gs], &s.Groups[at/gs], full)
	})
	return purged
}

// restoreGroup rebuilds one group from its records: a fresh policy —
// always, since the recorded predictor may differ from a fresh one —
// then each set's recorded entries replayed as fills LRU-first into
// ways 0..K-1, then the predictor state (none for LRU) and, for a full
// restore, the ledger. Only sets with recorded entries get storage. It
// returns the number of entries the group held before.
func restoreGroup(g *group, recs []snap.SetRecord, gr *snap.GroupRecord, full bool) (purged int) {
	purged = initGroup(g)
	g.attach()
	for i := range recs {
		if len(recs[i].Entries) > 0 {
			g.sets[i].grow()
			restoreSet(&g.sets[i], &recs[i])
		}
	}
	if g.rwp != nil {
		if err := g.rwp.RestoreState(*gr.RWP); err != nil {
			// checkSnapshot validated this exact state; failing here is
			// a programming error, not an input condition.
			panic("live: pre-validated RWP state rejected: " + err.Error())
		}
	}
	if full {
		g.setLedger(gr.Ops)
	}
	return purged
}

// restoreSet replays one record into a freshly grown set.
func restoreSet(ls *lset, r *snap.SetRecord) {
	n := len(r.Entries)
	for i := n - 1; i >= 0; i-- {
		way := n - 1 - i
		e := &r.Entries[i]
		tag := mem.LineAddr(HashKey(e.Key))
		ls.install(way, e.Key, tag, e.Value, e.Dirty)
		ls.validCount++
		class := cache.DemandLoad
		if e.Dirty {
			ls.dirtyCount++
			class = cache.DemandStore
		}
		// OnFill, not fill(): policy bookkeeping (recency touch, RWP
		// written bits) without advancing the interval clock or
		// counting ops — those transfer as state.
		ls.grp.pol.OnFill(ls.idx, way, cache.AccessInfo{Line: tag, Class: class})
	}
}

// SnapBytes encodes SnapshotRange for the wire (proto.RangeBackend);
// out-of-bounds and group-splitting ranges error instead of panicking,
// since they arrive from remote peers.
func (c *Cache) SnapBytes(lo, hi int) ([]byte, error) {
	if err := c.CheckRange(lo, hi); err != nil {
		return nil, err
	}
	return snap.Encode(c.SnapshotRange(lo, hi)), nil
}

// RestoreBytes decodes and applies a wire snapshot with RestoreRange
// (catch-up) semantics, reporting entries purged.
func (c *Cache) RestoreBytes(data []byte) (int, error) {
	s, err := snap.Decode(data)
	if err != nil {
		return 0, err
	}
	return c.RestoreRange(s)
}
