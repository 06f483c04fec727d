package live

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"rwp/internal/mem"
	"rwp/internal/snap"
	"rwp/internal/xrand"
)

// refFind is the probe find replaced: every valid way's key compared,
// no tag consulted. It is the reference the packed-tag probe must agree
// with on every lookup.
func refFind(s *lset, key string) int {
	for w := range s.entries {
		if e := &s.entries[w]; e.valid && e.key() == key {
			return w
		}
	}
	return -1
}

// probeBoth looks key up with both probes and fails on a disagreement.
// Single-goroutine tests only: it reads the set without the shard lock.
func probeBoth(t *testing.T, c *Cache, key string) (way int) {
	t.Helper()
	h := HashKey(key)
	_, ls := c.locate(h)
	way = ls.find(key, mem.LineAddr(h))
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
			cfg.Sets, cfg.Ways, cfg.Shards, cfg.Policy = 16, 4, 2, pol
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

// TestSameTagResolvesByKey: the tag narrows the probe, the key decides.
// Two different keys installed under one 64-bit tag in one set (a full
// hash collision, forced white-box) each resolve to their own way, a
// third key with that tag misses, and an invalid way matches nothing —
// not even the (key "", tag 0) a freshly cleared way holds, the case
// cache.Lookup pins for line 0 in the simulator.
func TestSameTagResolvesByKey(t *testing.T) {
	cfg := tinyConfig("lru")
	cfg.Sets, cfg.Ways = 1, 4
	c := mustNew(t, cfg)
	ls := &c.shards[0].sets[0]
	if w := ls.find("", 0); w != -1 {
		t.Fatalf(`find("", 0) on an empty set = way %d, want -1`, w)
	}
	// A set has no ways until its first fill: one Put grows them, into
	// way 0, and leaves ways 1-3 cleared.
	c.Put("x", []byte("x"))
	if w := ls.find("", 0); w != -1 {
		t.Fatalf(`find("", 0) over cleared ways = way %d, want -1`, w)
	}
	const tag = mem.LineAddr(0xfeedface)
	ls.install(1, "alpha", tag, []byte("a"), false)
	ls.install(2, "bravo", tag, []byte("b"), true)
	for key, want := range map[string]int{"alpha": 1, "bravo": 2, "gamma": -1} {
		if w := ls.find(key, tag); w != want {
			t.Errorf("find(%q) under a shared tag = way %d, want %d", key, w, want)
		}
	}
	if w := ls.find("alpha", tag+1); w != -1 {
		t.Errorf("find under the wrong tag = way %d, want -1 (the probe is tag-first)", w)
	}
	ls.entries[1].valid = false
	if w := ls.find("alpha", tag); w != -1 {
		t.Errorf("find matched invalid way %d", w)
	}
}

// TestStaleTagIsAnInvariantViolation: a valid way whose tag is not its
// key's hash hides a resident key from find, so CheckInvariants must
// reject it — whatever the stale value is, zero included.
func TestStaleTagIsAnInvariantViolation(t *testing.T) {
	for _, stale := range []mem.LineAddr{0, 1, ^mem.LineAddr(0)} {
		c := mustNew(t, tinyConfig("rwp"))
		c.Put("k", []byte("v"))
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		h := HashKey("k")
		_, ls := c.locate(h)
		ls.tags[ls.find("k", mem.LineAddr(h))] = stale
		if err := c.CheckInvariants(); err == nil {
			t.Errorf("CheckInvariants accepted stale tag %#x", uint64(stale))
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
// and the ledger lives on the group, not on every set. The default
// cache after 16 384 inserts of 64-byte values under "k:<i>" keys —
// 14 740 resident — holds 2 158 592 bytes of heap (146 B per entry);
// with a key object beside a value buffer in a 48-byte entry and a
// ledger per set it held 2 654 064 (180 B per entry).
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
	e := &c.shards[0].sets[0].entries[0]
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
