package live

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rwp/internal/cache"
	"rwp/internal/core"
	"rwp/internal/mem"
	"rwp/internal/policy"
	"rwp/internal/recency"
	"rwp/internal/xrand"
)

// refModel is the whole-cache reference model: the simulator's cache,
// one 8-set cache.Cache per policy group, with HashKey(key) as the
// line. It is built from the configuration alone — the predictor's
// interval scaled by the group size here, not by groupRWPConfig — so a
// live group whose policy, clock or tag store drifts from a plain
// simulator cache shows up as a disagreement.
type refModel struct {
	cfg    Config
	gs     int
	groups []*cache.Cache
	rwps   []*core.RWP // nil under lru
}

func newRefModel(t *testing.T, cfg Config) *refModel {
	m := &refModel{cfg: cfg, gs: GroupSets(cfg.Sets)}
	m.groups = make([]*cache.Cache, cfg.Sets/m.gs)
	m.rwps = make([]*core.RWP, len(m.groups))
	m.reset(t, 0, cfg.Sets)
	return m
}

// reset rebuilds the groups of the global sets [lo, hi) from nothing.
func (m *refModel) reset(t *testing.T, lo, hi int) {
	t.Helper()
	for gi := lo / m.gs; gi < hi/m.gs; gi++ {
		var pol cache.Policy = policy.NewLRU()
		m.rwps[gi] = nil
		if m.cfg.Policy == "rwp" {
			rc := m.cfg.RWP
			rc.Interval *= uint64(m.gs)
			m.rwps[gi] = core.New(rc)
			pol = m.rwps[gi]
		}
		c, err := cache.New(cache.Config{Name: "ref", SizeBytes: m.gs * m.cfg.Ways * 64, Ways: m.cfg.Ways, LineSize: 64}, pol)
		if err != nil {
			t.Fatal(err)
		}
		m.groups[gi] = c
	}
}

// group returns the reference cache of the key hash h.
func (m *refModel) group(h uint64) *cache.Cache {
	return m.groups[int(h&uint64(m.cfg.Sets-1))/m.gs]
}

// valid maps every valid line of the reference set to its dirty bit.
func valid(c *cache.Cache, set int) map[mem.LineAddr]bool {
	out := map[mem.LineAddr]bool{}
	for w := 0; w < c.Ways(); w++ {
		if st := c.State(set, w); st.Valid {
			out[st.Tag] = st.Dirty
		}
	}
	return out
}

// gone returns the one line of before that after lacks, if any.
func gone(before, after map[mem.LineAddr]bool) (line mem.LineAddr, dirty, ok bool) {
	for l, d := range before {
		if _, kept := after[l]; !kept {
			return l, d, true
		}
	}
	return 0, false, false
}

// byRecency lists the reference set's valid lines MRU first.
func byRecency(c *cache.Cache, set int) []mem.LineAddr {
	tab := c.Policy().(interface{ Recency() *recency.Table }).Recency()
	var out []mem.LineAddr
	for pos := 0; pos < c.Ways(); pos++ {
		if st := c.State(set, tab.At(set, pos)); st.Valid {
			out = append(out, st.Tag)
		}
	}
	return out
}

// TestCacheMatchesReferenceModel drives seeded Get/Put streams through
// a live cache and through the reference model, under lru and rwp,
// without a Loader and with one that reports some keys
// absent behind Coalesce and NegOps. The keys span every group. Midway
// a range is reset on both sides, and elsewhere a range is captured with
// SnapBytes and restored into the live cache with RestoreBytes — a fixed
// point, so the reference does nothing. Each range is a run of whole
// ring shards, as the cluster layer hands them to a node: at shards=1
// the one shard is the whole cache, at shards=8 each is one group. The reference sees an access
// only where the live cache hit or filled, never on a miss that
// installed nothing. After every op the two agree on hit or miss, on
// the evicted key and its dirty bit, on every set's valid and dirty
// counts and on every group's dirty target and retarget count; at the
// end on every set's residents in recency order and every group's
// predictor state.
func TestCacheMatchesReferenceModel(t *testing.T) {
	const ops, keyspace = 6000, 640
	for _, pol := range []string{"lru", "rwp"} {
		for _, shards := range []int{1, 8} {
			for _, loader := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/shards=%d/loader=%v", pol, shards, loader), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Sets, cfg.Ways, cfg.Policy = 64, 4, pol
					cfg.RWP.Interval = 8
					if loader {
						cfg.Loader = func(key string) []byte {
							if HashKey(key)%5 == 0 {
								return nil
							}
							return []byte("ld:" + key)
						}
						cfg.Coalesce, cfg.NegOps = true, 32
					}
					checkAgainstReference(t, cfg, shards, ops, keyspace)
				})
			}
		}
	}
}

// checkAgainstReference runs the comparison; every range op covers a
// random run of whole ring shards of a ring of the given shard count.
func checkAgainstReference(t *testing.T, cfg Config, shards, ops, keyspace int) {
	c, m := mustNew(t, cfg), newRefModel(t, cfg)
	rng := xrand.New(54)
	groups, perShard := cfg.Sets/m.gs, cfg.Sets/shards
	if perShard%m.gs != 0 {
		t.Fatalf("%d ring shards split the %d-set groups", shards, m.gs)
	}
	shardRange := func() (lo, hi int) {
		lo = rng.Intn(shards)
		return lo * perShard, (lo + 1 + rng.Intn(shards-lo)) * perShard
	}
	var hits, fills, evictions, dirtyEvictions int
	for i := 0; i < ops; i++ {
		switch i {
		case ops / 2:
			lo, hi := shardRange()
			c.ResetRange(lo, hi)
			m.reset(t, lo, hi)
			compareCounts(t, i, c, m)
			continue
		case ops / 3, 5 * ops / 6:
			data, err := c.SnapBytes(shardRange())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RestoreBytes(data); err != nil {
				t.Fatal(err)
			}
			compareCounts(t, i, c, m)
			continue
		}
		key := fmt.Sprintf("k%04d", rng.Intn(keyspace))
		h := HashKey(key)
		line := mem.LineAddr(h)
		ls := c.locate(h)
		ref, set := m.group(h), int(h&uint64(m.gs-1))
		before := liveResidents(ls)
		put := rng.Chance(0.4)
		var hit bool
		if put {
			hit = !c.Put(key, []byte(fmt.Sprint("v", i)))
		} else {
			_, hit = c.Get(key)
		}
		after := liveResidents(ls)
		_, filled := after[key]
		filled = filled && !hit
		if _, _, ok := ref.Lookup(line); ok != hit {
			t.Fatalf("op %d %q: live hit %v, reference resident %v", i, key, hit, ok)
		}
		var refGone mem.LineAddr
		var refDirty, refEvicted bool
		if hit || filled {
			class := cache.DemandLoad
			if put {
				class = cache.DemandStore
			}
			was := valid(ref, set)
			ref.Access(line, 0, class, 0)
			refGone, refDirty, refEvicted = gone(was, valid(ref, set))
		} else if put {
			t.Fatalf("op %d %q: a Put neither hit nor filled", i, key)
		}
		var liveGone string
		var liveDirty, liveEvicted bool
		for k, d := range before {
			if _, kept := after[k]; !kept {
				liveGone, liveDirty, liveEvicted = k, d, true
			}
		}
		if liveEvicted != refEvicted || liveEvicted && (mem.LineAddr(HashKey(liveGone)) != refGone || liveDirty != refDirty) {
			t.Fatalf("op %d %q: live evicted %v %q (dirty %v), reference %v %#x (dirty %v)",
				i, key, liveEvicted, liveGone, liveDirty, refEvicted, uint64(refGone), refDirty)
		}
		if hit {
			hits++
		}
		if filled {
			fills++
		}
		if liveEvicted {
			evictions++
			if liveDirty {
				dirtyEvictions++
			}
		}
		compareCounts(t, i, c, m)
	}

	for gi := 0; gi < groups; gi++ {
		base := gi * m.gs
		ls := c.locate(uint64(base))
		rec := c.SnapshotRange(base, base+m.gs)
		for s := 0; s < m.gs; s++ {
			var lines []mem.LineAddr
			for _, e := range rec.Records[s].Entries {
				lines = append(lines, mem.LineAddr(HashKey(e.Key)))
			}
			if want := byRecency(m.groups[gi], s); !reflect.DeepEqual(lines, want) {
				t.Errorf("set %d: live residents MRU first %x, reference %x", base+s, lines, want)
			}
		}
		if m.rwps[gi] != nil {
			if l, r := c.predictor(ls.grp).ExportState(), m.rwps[gi].ExportState(); !reflect.DeepEqual(l, r) {
				t.Errorf("group at set %d: predictor state differs:\nlive      %+v\nreference %+v", base, l, r)
			}
		}
	}
	s := c.Stats()
	if hits == 0 || fills == 0 || dirtyEvictions == 0 || cfg.Policy == "rwp" && s.Retargets == 0 ||
		cfg.Loader != nil && (evictions == dirtyEvictions || s.NegHits == 0 || s.NegInserts == 0) {
		t.Errorf("stream is vacuous: %d hits, %d fills, %d evictions (%d dirty), %+v", hits, fills, evictions, dirtyEvictions, s)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// compareCounts fails unless every live set holds as many valid and
// dirty entries as its reference set, and every live group — or the
// fresh predictor it reports before its first fill — stands at the
// reference group's dirty target and retarget count.
func compareCounts(t *testing.T, op int, c *Cache, m *refModel) {
	t.Helper()
	for global := 0; global < c.cfg.Sets; global++ {
		ls := c.locate(uint64(global))
		ref, set := m.groups[global/m.gs], global%m.gs
		lv, ld := liveCounts(ls)
		if rv, rd := ref.ValidWays(set), ref.DirtyWays(set); lv != rv || ld != rd {
			t.Fatalf("op %d set %d: live holds %d valid, %d dirty; reference %d, %d", op, global, lv, ld, rv, rd)
		}
		if global%m.gs != 0 || m.rwps[global/m.gs] == nil {
			continue
		}
		l, r := c.predictor(ls.grp), m.rwps[global/m.gs]
		if l.TargetDirty() != r.TargetDirty() || l.Intervals() != r.Intervals() {
			t.Fatalf("op %d group at set %d: live at target %d after %d retargets, reference at %d after %d",
				op, global, l.TargetDirty(), l.Intervals(), r.TargetDirty(), r.Intervals())
		}
	}
}

// liveResidents maps every resident key of ls to its dirty bit. The
// keys are copies: a way's buffer is rewritten in place by the fill that
// evicts it.
func liveResidents(ls *lset) map[string]bool {
	out := map[string]bool{}
	for w := range ls.entries {
		if st := ls.grp.tags.State(ls.idx, w); st.Valid {
			out[strings.Clone(ls.entries[w].key())] = st.Dirty
		}
	}
	return out
}

// liveCounts returns ls's valid and dirty way counts.
func liveCounts(ls *lset) (valid, dirty int) {
	if t := ls.grp.tags; t != nil {
		return t.ValidWays(ls.idx), t.DirtyWays(ls.idx)
	}
	return 0, 0
}
