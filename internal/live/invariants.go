package live

import "fmt"

// CheckInvariants recounts every set's structural state from scratch
// and compares it with the incrementally maintained counters of its
// group's tag store, the RWP partition among them: a way's written bit
// is its dirty bit, which restore-by-replay (DESIGN.md §15) relies on.
// It takes each group lock in turn, so it is safe (if slow) on a live
// cache; the stress and determinism tests — including cmd/rwpserve's TCP race
// stress — call it after hammering the cache.
func (c *Cache) CheckInvariants() error {
	gs := GroupSets(c.cfg.Sets)
	for gi := range c.groups {
		g := &c.groups[gi]
		g.mu.Lock()
		err := c.checkGroup(g, gi*gs)
		g.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// checkGroup checks one group, whose first set is global set base, under
// its lock.
func (c *Cache) checkGroup(g *group, base int) error {
	gs := GroupSets(c.cfg.Sets)
	if len(g.sets) != gs {
		return fmt.Errorf("group at set %d: %d sets, want %d", base, len(g.sets), gs)
	}
	if err := g.ops.check(); err != nil {
		return fmt.Errorf("group at set %d: %w", base, err)
	}
	for i := range g.sets {
		ls, global := &g.sets[i], base+i
		// The policy knows the set as idx of grp: a wrong pair steers
		// every callback at another set's recency and partition state.
		if ls.grp != g || ls.idx != i || &c.sets[global] != ls {
			return fmt.Errorf("set %d: not set %d of group %d", global, i, base/gs)
		}
		// A set has all its payloads or none (grow), and payloads only
		// under its group's tag store, which every fill that grew them
		// went through; a valid way has a payload.
		if ls.entries != nil && (len(ls.entries) != c.cfg.Ways || g.tags == nil) {
			return fmt.Errorf("set %d: %d entries (tag store %v), want none or %d under a tag store",
				global, len(ls.entries), g.tags != nil, c.cfg.Ways)
		}
		seen := map[string]bool{}
		if g.tags != nil {
			if err := checkWays(global, ls, seen, c.mask); err != nil {
				return err
			}
		}
		if err := checkNegs(global, ls, seen, c.cfg.Ways, c.mask); err != nil {
			return err
		}
	}
	return nil
}

// checkWays holds one set's ways in its group's tag store to their
// payloads, under the group lock: a valid way has an entry whose key
// hashes to the set, with the way's tag, which Lookup finds at this way
// (so no other way shares it); the store's valid and dirty counts are
// the ways' own; RWP's written bit is the way's dirty bit, which
// restore-by-replay relies on. It records every resident key in seen.
func checkWays(global int, ls *lset, seen map[string]bool, mask uint64) error {
	g := ls.grp
	valid, dirty := 0, 0
	for w := 0; w < g.tags.Ways(); w++ {
		st := g.tags.State(ls.idx, w)
		if g.rwp != nil && g.rwp.Written(ls.idx, w) != (st.Valid && st.Dirty) {
			return fmt.Errorf("set %d way %d: RWP written bit %v, way valid=%v dirty=%v",
				global, w, g.rwp.Written(ls.idx, w), st.Valid, st.Dirty)
		}
		if !st.Valid {
			continue
		}
		if ls.entries == nil {
			return fmt.Errorf("set %d way %d: valid with no entry", global, w)
		}
		valid++
		if st.Dirty {
			dirty++
		}
		key := ls.entries[w].key()
		if seen[key] {
			return fmt.Errorf("set %d: duplicate key %q", global, key)
		}
		seen[key] = true
		h := HashKey(key)
		if got := int(h & mask); got != global {
			return fmt.Errorf("set %d holds key %q that hashes to set %d", global, key, got)
		}
		// find probes the tag first: a wrong one hides a resident key.
		if uint64(st.Tag) != h {
			return fmt.Errorf("set %d way %d key %q: stale tag %#x", global, w, key, uint64(st.Tag))
		}
		if _, way, _ := g.tags.Lookup(st.Tag); way != w {
			return fmt.Errorf("set %d way %d key %q: its tag is found at way %d", global, w, key, way)
		}
	}
	if valid != g.tags.ValidWays(ls.idx) || dirty != g.tags.DirtyWays(ls.idx) {
		return fmt.Errorf("set %d: counted valid=%d dirty=%d, tag store valid=%d dirty=%d",
			global, valid, dirty, g.tags.ValidWays(ls.idx), g.tags.DirtyWays(ls.idx))
	}
	if g.rwp != nil && g.rwp.WrittenWays(ls.idx) != dirty {
		return fmt.Errorf("set %d: RWP counts %d written ways, set holds %d dirty", global, g.rwp.WrittenWays(ls.idx), dirty)
	}
	return nil
}

// checkNegs verifies one set's negative-cache structure, under the
// group lock.
func checkNegs(global int, ls *lset, resident map[string]bool, ways int, mask uint64) error {
	if len(ls.negs) > ways {
		return fmt.Errorf("set %d: negative cache holds %d entries, cap is %d ways", global, len(ls.negs), ways)
	}
	for i := range ls.negs {
		key := ls.negs[i].key
		if got := int(HashKey(key) & mask); got != global {
			return fmt.Errorf("set %d: negative-cache key %q hashes to set %d", global, key, got)
		}
		if resident[key] {
			return fmt.Errorf("set %d: key %q is both resident and negatively cached", global, key)
		}
		for j := 0; j < i; j++ {
			if ls.negs[j].key == key {
				return fmt.Errorf("set %d: duplicate negative-cache key %q", global, key)
			}
		}
	}
	return nil
}
