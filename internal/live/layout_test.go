package live

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"rwp/internal/cache"
	"rwp/internal/mem"
	"rwp/internal/snap"
	"rwp/internal/xrand"
)

// refFind is the probe find replaced: every valid way's key compared,
// no tag consulted. It is the reference the packed-tag probe must agree
// with on every lookup.
func refFind(s *lset, key string) int {
	for w := range s.entries {
		if e := &s.entries[w]; s.grp.tags.State(s.idx, w).Valid && e.key() == key {
			return w
		}
	}
	return -1
}

// keyWay is find's way when the key there matched, else -1.
func keyWay(way int, match bool) int {
	if match {
		return way
	}
	return -1
}

// probeBoth looks key up with both probes and fails on a disagreement.
// Single-goroutine tests only: it reads the set without the group lock.
func probeBoth(t *testing.T, c *Cache, key string) (way int) {
	t.Helper()
	h := HashKey(key)
	ls := c.locate(h)
	way = keyWay(ls.find(key, mem.LineAddr(h)))
	if ref := refFind(ls, key); way != ref {
		t.Fatalf("find(%q) = way %d, key-only reference scan = way %d", key, way, ref)
	}
	return way
}

// TestFindMatchesReference drives seeded random streams through every
// entry point that reads or writes a way — Get, Put, GetAppend,
// PutBytes, ResetRange, snapshot/restore of both flavours — over
// equal-length keys (so the reference's key compare never short-cuts on
// length) at a geometry small enough that every set churns. The two
// probes must agree before and after every operation, each operation
// must report what the reference probe predicted, and at the end the
// ledger must hold exactly the hit/miss split the reference saw.
func TestFindMatchesReference(t *testing.T) {
	const ops, keyspace = 20_000, 192
	for _, pol := range []string{"lru", "rwp"} {
		t.Run(pol, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Sets, cfg.Ways, cfg.Policy = 16, 4, pol
			cfg.RWP.Interval = 16
			cfg.Loader = func(key string) []byte { return []byte("ld:" + key) }
			c := mustNew(t, cfg)
			rng := xrand.New(17)
			// Range operations take whole policy groups.
			groups := cfg.Sets / GroupSets(cfg.Sets)
			groupRange := func() (lo, hi int) {
				lo = rng.Intn(groups)
				return lo * GroupSets(cfg.Sets), (lo + 1 + rng.Intn(groups-lo)) * GroupSets(cfg.Sets)
			}
			var want Counters
			dst := make([]byte, 0, 64)
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("key-%04d", rng.Intn(keyspace))
				val := fmt.Appendf(nil, "v%d:%s", i, key)
				resident := probeBoth(t, c, key) >= 0
				switch op := rng.Intn(100); {
				case op < 55:
					var got []byte
					var hit bool
					if op < 30 {
						got, hit = c.Get(key)
					} else {
						got, hit, _ = c.GetAppend(dst[:0], []byte(key))
					}
					if hit != resident || len(got) == 0 {
						t.Fatalf("op %d: Get(%q) = (%q, hit %v), reference probe said resident %v", i, key, got, hit, resident)
					}
					want.Gets++
					if hit {
						want.GetHits++
					} else {
						want.GetMisses++
					}
				case op < 96:
					var inserted bool
					if op < 75 {
						inserted = c.Put(key, val)
					} else {
						inserted = c.PutBytes([]byte(key), val)
					}
					if inserted == resident {
						t.Fatalf("op %d: Put(%q) inserted %v, reference probe said resident %v", i, key, inserted, resident)
					}
					want.Puts++
					if inserted {
						want.PutInserts++
					} else {
						want.PutHits++
					}
				case op < 97:
					c.ResetRange(groupRange())
				case op < 99:
					// Round-trip through the wire format, so restored keys
					// and values are fresh allocations.
					s, err := snap.Decode(snap.Encode(c.Snapshot()))
					if err != nil {
						t.Fatal(err)
					}
					if err := c.RestoreSnapshot(s); err != nil {
						t.Fatal(err)
					}
				default:
					data, err := c.SnapBytes(groupRange())
					if err != nil {
						t.Fatal(err)
					}
					c.ResetRange(0, cfg.Sets)
					if _, err := c.RestoreBytes(data); err != nil {
						t.Fatal(err)
					}
				}
				probeBoth(t, c, key)
			}
			s := c.Stats()
			if s.Gets != want.Gets || s.GetHits != want.GetHits || s.GetMisses != want.GetMisses ||
				s.Puts != want.Puts || s.PutHits != want.PutHits || s.PutInserts != want.PutInserts {
				t.Errorf("ledger disagrees with the reference probe:\n got  %+v\n want %+v", s.Counters, want)
			}
			if s.GetHits == 0 || s.PutHits == 0 || s.Evictions == 0 || s.DirtyEvictions == 0 {
				t.Errorf("stream is vacuous: %+v", s.Counters)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSameTagResolvesByKey: the tag narrows the probe, the key decides,
// and one tag is one way. A key forged under another resident key's
// line through the fill path — a full 64-bit hash collision, counted as
// the Put it stands for — displaces the first key: an eviction (a dirty
// one, since the first key was Put), no second valid way under the tag,
// the ledger laws intact. A Get of the first key then misses and never
// serves the second key's value; with a Loader it fills back and
// displaces the forged key in turn. Before any fill no key is found, not
// even the (key "", line 0) of a never-filled way.
func TestSameTagResolvesByKey(t *testing.T) {
	cfg := tinyConfig("rwp")
	cfg.Sets, cfg.Ways = 1, 4
	loads := 0
	cfg.Loader = func(key string) []byte {
		loads++
		return []byte("ld:" + key)
	}
	c := mustNew(t, cfg)
	ls := &c.sets[0]
	if w := keyWay(ls.find("", 0)); w != -1 {
		t.Fatalf(`find("", 0) on an empty set = way %d, want -1`, w)
	}
	c.Put("alpha", []byte("a"))
	c.Put("x", []byte("x"))
	if w := keyWay(ls.find("", 0)); w != -1 {
		t.Fatalf(`find("", 0) over cleared ways = way %d, want -1`, w)
	}
	line := mem.LineAddr(HashKey("alpha"))
	way := keyWay(ls.find("alpha", line))
	// What put does for an insert, with alpha's line in place of bravo's:
	// find reports alpha's way, whose key is not bravo.
	g := ls.grp
	g.mu.Lock()
	same, match := ls.find("bravo", line)
	if same != way || match {
		t.Fatalf(`find("bravo") on alpha's line = (way %d, match %v), want (%d, false)`, same, match, way)
	}
	g.ops.Puts++
	g.ops.PutInserts++
	class := classInsert
	if ls.fill("bravo", []byte("b"), same, cache.AccessInfo{Line: line, Class: cache.DemandStore}) {
		class = classInsertEvict
	}
	g.costs[partDirty][class]++
	g.mu.Unlock()

	if class != classInsertEvict {
		t.Error("displacing a dirty key was not charged a dirty eviction")
	}
	if w := keyWay(ls.find("bravo", line)); w != way {
		t.Errorf("the forged key is at way %d, want alpha's way %d", w, way)
	}
	if w := keyWay(ls.find("alpha", line)); w != -1 {
		t.Errorf("the displaced key is still found, at way %d", w)
	}
	s := c.Stats()
	if s.Entries != 2 || s.Fills != 3 || s.Evictions != 1 || s.DirtyEvictions != 1 || s.Entries != int(s.Fills-s.Evictions) {
		t.Errorf("after the collision: %d entries, %d fills, %d evictions (%d dirty); want 2, 3, 1 (1)",
			s.Entries, s.Fills, s.Evictions, s.DirtyEvictions)
	}
	if err := g.ops.check(); err != nil {
		t.Errorf("ledger after the collision: %v", err)
	}
	// bravo's tag is not its own hash, so CheckInvariants calls it stale.
	// Get undoes the forgery: alpha misses, loads, and displaces bravo.
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "stale tag") {
		t.Errorf("CheckInvariants over the forged key = %v, want a stale-tag error", err)
	}
	v, hit := c.Get("alpha")
	if hit || string(v) != "ld:alpha" || loads != 1 {
		t.Errorf("Get(alpha) over the forged key = (%q, hit %v) after %d loads, want (ld:alpha, miss) after 1", v, hit, loads)
	}
	if w := keyWay(ls.find("bravo", line)); w != -1 {
		t.Errorf("the forged key survived the refill of its line, at way %d", w)
	}
	s = c.Stats()
	if s.Entries != 2 || s.Evictions != 2 || s.DirtyEvictions != 2 || s.Entries != int(s.Fills-s.Evictions) {
		t.Errorf("after the refill: %d entries, %d fills, %d evictions (%d dirty); want 2, 4, 2 (2)",
			s.Entries, s.Fills, s.Evictions, s.DirtyEvictions)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleTagIsAnInvariantViolation: a valid way whose tag in the group
// tag store is not its key's hash hides a resident key from find, so
// CheckInvariants must reject it — whatever the stale value is, zero
// included. The stale tag is forged through the store's own fill half.
func TestStaleTagIsAnInvariantViolation(t *testing.T) {
	for _, stale := range []mem.LineAddr{0, 1, ^mem.LineAddr(0)} {
		c := mustNew(t, tinyConfig("rwp"))
		c.Put("k", []byte("v"))
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		h := HashKey("k")
		ls := c.locate(h)
		tags := ls.grp.tags
		_, w, _ := tags.Lookup(mem.LineAddr(h))
		tags.Invalidate(ls.idx, w)
		if way, _ := tags.Fill(ls.idx, cache.AccessInfo{Line: stale, Class: cache.DemandStore}); ls.entries[way].key() != "k" {
			t.Fatalf("the forged tag landed in way %d, which holds %q", way, ls.entries[way].key())
		}
		if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "stale tag") {
			t.Errorf("CheckInvariants over stale tag %#x = %v, want a stale-tag error", uint64(stale), err)
		}
	}
}

// TestValueBuffersNeverAlias: a way's buffer is rewritten in place by
// overwrites and by the fills that evict it, so nothing handed to a
// caller may share it. Bytes returned by Get (hit and Loader fill) and a
// caller-owned GetAppend dst must survive their way being evicted,
// refilled and overwritten with same-sized values.
func TestValueBuffersNeverAlias(t *testing.T) {
	for _, pol := range []string{"lru", "rwp"} {
		cfg := tinyConfig(pol)
		cfg.Sets, cfg.Ways = 1, 2
		cfg.Loader = func(key string) []byte { return []byte("load-" + key) }
		c := mustNew(t, cfg)

		c.Put("a", []byte("orig-a"))
		held, hit := c.Get("a")
		dst, _, found := c.GetAppend(make([]byte, 0, 16), []byte("a"))
		loaded, _ := c.Get("b") // fills the set's second way
		if !hit || !found || !bytes.Equal(loaded, []byte("load-b")) {
			t.Fatalf("%s: setup: hit %v found %v loaded %q", pol, hit, found, loaded)
		}
		// Evict and refill both ways several times over, through both
		// fill paths, then overwrite what landed there.
		for i := 0; i < 4; i++ {
			c.Put(fmt.Sprintf("p%d", i), []byte("XXXXXX"))
			c.Get(fmt.Sprintf("g%d", i))
		}
		c.Put("p3", []byte("YYYYYY"))
		c.PutBytes([]byte("g3"), []byte("ZZZZZZ"))
		if _, hit := c.Get("a"); hit {
			t.Fatalf("%s: key a was never evicted; the test is vacuous", pol)
		}
		if !bytes.Equal(held, []byte("orig-a")) || !bytes.Equal(dst, []byte("orig-a")) || !bytes.Equal(loaded, []byte("load-b")) {
			t.Errorf("%s: caller-held bytes changed under way reuse: Get %q, GetAppend %q, fill %q", pol, held, dst, loaded)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEntryFootprint pins what a resident entry costs. A way's payload
// is one 32-byte entry and one buffer holding key and value together,
// its tag and flags are in the group's tag store, and the ledger lives
// on the group, not on every set. The default cache after 16 384
// inserts of 64-byte values under "k:<i>" keys — 14 740 resident —
// holds 2 182 528 bytes of heap (148 B per entry); with tags and counts
// per set it held 2 166 848 (147 B), and with a key object beside a
// value buffer in a 48-byte entry and a ledger per set 2 654 064 (180 B).
func TestEntryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 32 {
		t.Errorf("entry is %d bytes, want 32", got)
	}
	const inserts, resident, limit = 16_384, 14_740, 2_359_296 // 2.25 MiB
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	for i, n := 0, 0; n < inserts; i++ {
		if c.Put("k:"+strconv.Itoa(i), val) {
			n++
		}
	}
	grown := int64(heap()) - int64(before)
	if got := c.Stats().Entries; got != resident {
		t.Fatalf("%d entries resident after %d inserts, want %d", got, inserts, resident)
	}
	runtime.KeepAlive(c)
	t.Logf("heap grew %d B for %d entries (%d B/entry)", grown, resident, grown/resident)
	if grown > limit {
		t.Errorf("heap grew %d B for %d resident entries, want at most %d", grown, resident, limit)
	}
}

// TestRetainedCapacityIsBounded: a way reuses its buffer, but not at any
// price — after holding a 1 MiB value it must let go of it when a small
// one arrives, by overwrite and by refill alike, or a server that once
// stored large values would pin them per way for good. The bound counts
// the key and the value the buffer holds together.
func TestRetainedCapacityIsBounded(t *testing.T) {
	cfg := tinyConfig("rwp")
	cfg.Sets, cfg.Ways = 1, 1
	c := mustNew(t, cfg)
	big, small := make([]byte, 1<<20), make([]byte, 64)
	bound := max(retainFactor*(len("a")+len(small)), retainMin)

	c.Put("a", big) // the set's first fill grows its one way
	e := &c.sets[0].entries[0]
	if cap(e.kv) < 1+len(big) {
		t.Fatalf("stored %d bytes in a %d-byte buffer", 1+len(big), cap(e.kv))
	}
	c.Put("a", small) // overwrite
	if cap(e.kv) > bound || e.key() != "a" || !bytes.Equal(e.val(), small) {
		t.Errorf("overwrite with 64 B kept a %d-byte buffer (key %q), want at most %d", cap(e.kv), e.key(), bound)
	}
	c.Put("a", big)
	c.Put("b", small) // evicts a, refills the way
	if e.key() != "b" || cap(e.kv) > bound {
		t.Errorf("refill with 64 B (way now holds %q) kept a %d-byte buffer, want at most %d", e.key(), cap(e.kv), bound)
	}
	// The steady state still reuses: same-size traffic never reallocates.
	before := &e.kv[0]
	c.Put("b", small)
	c.Put("c", small)
	if &e.kv[0] != before {
		t.Error("a same-sized overwrite and refill replaced the way's buffer")
	}
}
