package live

import (
	"rwp/internal/cache"
	"rwp/internal/probe"
)

// This file is the live cache's Get-miss path and its stampede
// defenses: what Config.Coalesce and/or Config.NegOps put in front of
// the Loader call. The look-aside design's classic failure mode is a miss storm — many
// clients miss on one key at once and fan out as that many concurrent
// Loader calls, overloading the very backend the cache exists to
// shield. Three mechanisms close it:
//
//   - Singleflight coalescing (Coalesce): the first miss on a key
//     registers a fillCall in its shard's fills map and becomes the
//     leader — the only goroutine that calls the Loader. Misses that
//     arrive while the call is in flight block on the fillCall's done
//     channel and share its result (counted CoalescedLoads). A miss
//     that relocks and finds the key already resident joins the
//     just-landed fill the same way — the storm's tail (without the
//     defenses that miss fetches anyway and is counted a LoadRace).
//   - Negative caching (NegOps): when the Loader reports a key absent
//     (nil), the set remembers that verdict for NegOps operations on
//     the set's own op-count clock (counted NegInserts); Gets inside
//     the window are answered locally (NegHits). A Put of the key, or
//     a Loader fill, invalidates the entry immediately, so negative
//     answers never shadow a write. The op-count clock — never wall
//     clock — keeps expiry deterministic and shard-count invariant.
//   - Lease tokens (LeaseOps): a fillCall's registration op-count is
//     its lease. If the leader's Loader call outlives LeaseOps set
//     operations (stuck backend, dead goroutine), the next missing Get
//     deposes it (LeaseExpires), registers a fresh fillCall, and
//     fetches itself; the deposed leader's install is then demoted to
//     a LoadRace by the ordinary resident-recheck.
//
// Counter conservation: with a Loader configured, every Get miss runs
// miss below, and every path through it increments exactly one of
// Loads, LoadRaces, LoadAbsents, CoalescedLoads, NegHits, or
// NegInserts — the prelude's three early returns, or the one switch
// after the Loader call — so at rest
//
//	GetMisses == Loads + LoadRaces + LoadAbsents
//	           + CoalescedLoads + NegHits + NegInserts
//
// holds by construction, defenses on or off. The stress tests assert
// it and CheckInvariants bounds it (while a fill is in flight its miss
// is counted but not yet resolved, so the right side may trail, never
// lead).
//
// Determinism: the defenses engage only on the miss-with-Loader path
// and only collapse genuinely concurrent work, so a single-goroutine
// run with Coalesce on is bit-identical to one with it off; negative
// caching changes behavior (that is its job) but deterministically —
// same stream in, same counters out, at any shard count.
//
// Reentrancy caveat: with Coalesce on, a Loader that reentrantly Gets
// the key it was asked to load would wait on its own fillCall —
// deadlock. Reentrant Puts (the TestReentrantLoader contract) remain
// fine: Put never touches the fills map.

// fillCall is one in-flight coalesced Loader call.
type fillCall struct {
	born uint64        // the set's clock at registration (the lease clock)
	done chan struct{} // closed by the leader once val is final
	val  []byte        // the Loader's result; immutable after done closes
}

// negEntry is one negative-cache verdict: key was absent from the
// backing store, believed until the set's clock reaches exp.
type negEntry struct {
	key string
	exp uint64
}

// Both windows run on lset.clock, the set's count of started Gets and
// Puts: pure set-local state, so everything timed by it is shard-count
// invariant by construction, and apart from the ledger, so ResetStats
// does not rewind it.

// negLookup reports whether key is negatively cached right now, lazily
// dropping the entry if its window has passed. Linear scan, like find:
// the slice is bounded by the set's associativity.
func (s *lset) negLookup(key string) bool {
	now := s.clock
	for i := range s.negs {
		if s.negs[i].key != key {
			continue
		}
		if now < s.negs[i].exp {
			return true
		}
		s.negs = append(s.negs[:i], s.negs[i+1:]...)
		return false
	}
	return false
}

// negInsert records (or refreshes) an absence verdict expiring at exp.
// The slice is capped at limit entries; when full, the soonest-expiring
// entry makes room (ties break to the oldest slot, deterministically).
func (s *lset) negInsert(key string, exp uint64, limit int) {
	for i := range s.negs {
		if s.negs[i].key == key {
			s.negs[i].exp = exp
			return
		}
	}
	if len(s.negs) >= limit {
		victim := 0
		for i := 1; i < len(s.negs); i++ {
			if s.negs[i].exp < s.negs[victim].exp {
				victim = i
			}
		}
		s.negs = append(s.negs[:victim], s.negs[victim+1:]...)
	}
	s.negs = append(s.negs, negEntry{key: key, exp: exp})
}

// negDelete drops key's absence verdict, if any — called whenever the
// key provably exists again (a Put insert or a Loader fill). A no-op
// on the nil slice, so undefended configurations pay nothing.
func (s *lset) negDelete(key string) {
	for i := range s.negs {
		if s.negs[i].key == key {
			s.negs = append(s.negs[:i], s.negs[i+1:]...)
			return
		}
	}
}

// miss finishes a Get miss when a Loader is configured. get has already
// counted the miss (Gets, GetMisses) and released the shard lock; this
// function owns the rest of the operation — it takes and releases the
// lock itself and does all remaining accounting. key is already owned
// (get copied a borrowed one before coming here); values are handed
// back through dst exactly as on get's own paths.
//
// The Loader call runs outside the lock: a slow backing store stalls
// only this Get, not every key in the shard (and a reentrant Loader
// does not self-deadlock).
func (c *Cache) miss(dst []byte, sh *shard, ls *lset, key string, set int, ai cache.AccessInfo) (out []byte, hit, found bool) {
	g := ls.grp
	var fc *fillCall
	if c.cfg.Coalesce || c.cfg.NegOps > 0 {
		sh.mu.Lock()
		if way := ls.find(key, ai.Line); way >= 0 {
			// The key landed between get's miss probe and here — a writer
			// or another miss's fill. Join the just-landed fill instead of
			// fetching again: this is the tail of a storm. Unreachable
			// single-goroutine: the window between unlock and relock is
			// empty without concurrency.
			g.ops.CoalescedLoads++
			g.costs[partClean][classHit]++
			dst = append(dst, ls.entries[way].val()...)
			sh.mu.Unlock()
			c.logGet(key, false, set, probe.OutcomeFill, CostCoalesced)
			return dst, false, true
		}
		if c.cfg.NegOps > 0 && ls.negLookup(key) {
			g.ops.NegHits++
			g.costs[partClean][classHit]++
			sh.mu.Unlock()
			c.logGet(key, false, set, probe.OutcomeMiss, CostNegHit)
			return dst, false, false
		}
		if c.cfg.Coalesce {
			if lead, ok := sh.fills[key]; ok {
				if c.cfg.LeaseOps == 0 || ls.clock-lead.born < c.cfg.LeaseOps {
					// A fill for this key is in flight and its lease is
					// live: wait for the leader's result instead of issuing
					// a second backend call.
					g.ops.CoalescedLoads++
					sh.mu.Unlock()
					<-lead.done
					sh.mu.Lock()
					g.costs[partClean][classHit]++
					sh.mu.Unlock()
					if lead.val == nil {
						// Absent for the leader, absent for every waiter.
						c.logGet(key, false, set, probe.OutcomeMiss, CostCoalesced)
						return dst, false, false
					}
					c.logGet(key, false, set, probe.OutcomeFill, CostCoalesced)
					// The leader's value is shared by every waiter: copy,
					// never hand out lead.val itself.
					return append(dst, lead.val...), false, true
				}
				// The leader's lease ran out: depose it so a stuck or dead
				// fill cannot park the key forever. Our fresh fillCall
				// replaces the map entry; the old leader's publish guard
				// (fills[key] == fc) keeps it from deleting ours, and the
				// resident-recheck demotes whichever fetch lands second to
				// a LoadRace.
				g.ops.LeaseExpires++
			}
			fc = &fillCall{born: ls.clock, done: make(chan struct{})}
			sh.fills[key] = fc
		}
		sh.mu.Unlock()
	}
	v := c.cfg.Loader(key)
	sh.mu.Lock()
	if fc != nil {
		// Publish before waking waiters: the val write is ordered
		// before close(done), and nothing writes val afterwards.
		fc.val = v
		if sh.fills[key] == fc {
			delete(sh.fills, key)
		}
		close(fc.done)
	}
	class, outcome := classMiss, probe.OutcomeFill
	switch {
	case ls.find(key, ai.Line) >= 0:
		// Lost the install race: a concurrent writer (or the leader that
		// replaced an expired lease of ours) installed the key while we
		// were loading. Keep the resident entry (it may hold a newer
		// Put); return the value this miss actually fetched. The cost is
		// the round trip alone — no fill, no eviction.
		g.ops.LoadRaces++
	case v == nil:
		// The backing store has no such key. A look-aside cache stores
		// values, not absences — nothing installs and the miss stands.
		// With NegOps the verdict is remembered, so the next NegOps ops
		// on this set answer locally; without it the next Get pays
		// another round trip.
		if c.cfg.NegOps > 0 {
			g.ops.NegInserts++
			ls.negInsert(key, ls.clock+c.cfg.NegOps, c.cfg.Ways)
		} else {
			g.ops.LoadAbsents++
		}
		outcome = probe.OutcomeMiss
	default:
		g.ops.Loads++
		ls.negDelete(key)
		if ls.fill(key, v, ai, false) {
			class = classMissEvict
		}
	}
	g.costs[partClean][class]++
	sh.mu.Unlock()
	c.logGet(key, false, set, outcome, classCost[class])
	return loaded(dst, v)
}
