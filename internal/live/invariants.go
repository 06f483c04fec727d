package live

import "fmt"

// CheckInvariants recounts every set's structural state from scratch
// and compares it with the incrementally maintained counters, the RWP
// partition among them: a way's written bit is its entry's dirty bit,
// which restore-by-replay (DESIGN.md §15) relies on. It takes
// every shard lock, so it is safe (if slow) on a live cache; the
// stress and determinism tests — including cmd/rwpserve's TCP race
// stress — call it after hammering the cache.
func (c *Cache) CheckInvariants() error {
	gs := GroupSets(c.cfg.Sets)
	for si, sh := range c.shards {
		sh.mu.Lock()
		for i := range sh.sets {
			ls := &sh.sets[i]
			global := si*c.perShard + i
			// The policy knows the set as idx of grp: a wrong pair steers
			// every callback at another set's recency and partition state.
			g := &sh.groups[i/gs]
			if ls.grp != g || ls.idx != i%gs || len(g.sets) != gs || &g.sets[ls.idx] != ls {
				sh.mu.Unlock()
				return fmt.Errorf("set %d: not set %d of its shard's group %d", global, i%gs, i/gs)
			}
			if ls.idx == 0 {
				if err := g.ops.check(); err != nil {
					sh.mu.Unlock()
					return fmt.Errorf("group at set %d: %w", global, err)
				}
			}
			// A set has all its ways or none (grow), and ways only under
			// its group's policy, which every fill that grew them went
			// through.
			if ls.entries != nil && (len(ls.entries) != c.cfg.Ways || len(ls.tags) != c.cfg.Ways || g.pol == nil) ||
				ls.entries == nil && ls.tags != nil {
				sh.mu.Unlock()
				return fmt.Errorf("set %d: storage of %d entries and %d tags (policy %v), want none or %d ways under a policy",
					global, len(ls.entries), len(ls.tags), g.pol != nil, c.cfg.Ways)
			}
			valid, dirty := 0, 0
			seen := map[string]bool{}
			for w := range ls.entries {
				e := &ls.entries[w]
				if g.rwp != nil && g.rwp.Written(ls.idx, w) != (e.valid && e.dirty) {
					sh.mu.Unlock()
					return fmt.Errorf("set %d way %d: RWP written bit %v, entry valid=%v dirty=%v",
						global, w, g.rwp.Written(ls.idx, w), e.valid, e.dirty)
				}
				if !e.valid {
					continue
				}
				valid++
				if e.dirty {
					dirty++
				}
				key := e.key()
				if seen[key] {
					sh.mu.Unlock()
					return fmt.Errorf("set %d: duplicate key %q", global, key)
				}
				seen[key] = true
				h := HashKey(key)
				if got := int(h & c.mask); got != global {
					sh.mu.Unlock()
					return fmt.Errorf("set %d holds key %q that hashes to set %d", global, key, got)
				}
				// find probes the tag first: a wrong one hides a resident key.
				if uint64(ls.tags[w]) != h {
					sh.mu.Unlock()
					return fmt.Errorf("set %d way %d key %q: stale tag %#x", global, w, key, uint64(ls.tags[w]))
				}
			}
			if valid != ls.validCount || dirty != ls.dirtyCount {
				sh.mu.Unlock()
				return fmt.Errorf("set %d: counted valid=%d dirty=%d, cached valid=%d dirty=%d",
					global, valid, dirty, ls.validCount, ls.dirtyCount)
			}
			if g.rwp != nil && g.rwp.WrittenWays(ls.idx) != dirty {
				sh.mu.Unlock()
				return fmt.Errorf("set %d: RWP counts %d written ways, set holds %d dirty", global, g.rwp.WrittenWays(ls.idx), dirty)
			}
			if err := checkNegs(global, ls, seen, c.cfg.Ways, c.mask); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// checkNegs verifies one set's negative-cache structure, under the
// shard lock.
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
