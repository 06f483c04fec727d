package live

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
)

// getSink keeps a Get result past its call, so the result escapes.
var getSink []byte

// TestGetHitAllocs pins what a Get hit costs, both halves of the
// documented rule. Where the result does not escape, Get's buffer lives
// in the caller's frame and a hit allocates nothing. Where it escapes
// (getSink), the buffer moves to the heap: exactly one allocation for a
// value that fits it, two for one that outgrows it. If Get stops
// inlining, the first pin fails.
func TestGetHitAllocs(t *testing.T) {
	for _, pol := range []string{"lru", "rwp"} {
		c := mustNew(t, tinyConfig(pol))
		c.Put("k", []byte("value-bytes"))
		c.Put("long", bytes.Repeat([]byte("v"), 100))
		if _, hit := c.Get("k"); !hit {
			t.Fatalf("%s: warmup Get missed", pol)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, hit := c.Get("k"); !hit {
				t.Fatal("Get missed inside AllocsPerRun")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Get hit allocates %.1f objects/op, want 0 (the copy-out stays in the caller's frame)", pol, allocs)
		}
		for _, tc := range []struct {
			key  string
			want float64
		}{{"k", 1}, {"long", 2}} {
			allocs := testing.AllocsPerRun(200, func() {
				var hit bool
				if getSink, hit = c.Get(tc.key); !hit {
					t.Fatal("Get missed inside AllocsPerRun")
				}
			})
			if allocs != tc.want {
				t.Errorf("%s: escaping Get hit of %d B allocates %.1f objects/op, want %.0f", pol, len(getSink), allocs, tc.want)
			}
		}
	}
}

// TestGetZeroLengthValue: "non-nil iff a value was served" holds for an
// empty value too — a hit and a Loader fill return a non-nil empty
// slice, a miss returns nil.
func TestGetZeroLengthValue(t *testing.T) {
	cfg := tinyConfig("rwp")
	cfg.Loader = func(key string) []byte {
		if key == "absent" {
			return nil
		}
		return []byte{}
	}
	c := mustNew(t, cfg)
	c.Put("empty", []byte{})
	assertUnlocked(t, c)
	if v, hit := c.Get("empty"); !hit || v == nil || len(v) != 0 {
		t.Errorf("hit on an empty value = (%q, nil %v, %v), want a non-nil empty slice and a hit", v, v == nil, hit)
	}
	assertUnlocked(t, c)
	if v, hit := c.Get("fill"); hit || v == nil || len(v) != 0 {
		t.Errorf("fill of an empty value = (%q, nil %v, %v), want a non-nil empty slice and no hit", v, v == nil, hit)
	}
	assertUnlocked(t, c)
	if v, hit := c.Get("absent"); hit || v != nil {
		t.Errorf("miss = (%q, %v), want (nil, false)", v, hit)
	}
	assertUnlocked(t, c)
}

// assertUnlocked fails the test at its caller's line if any group lock
// is held. A lock leaked by one call would otherwise show only as the
// next call on that group hanging until the test binary times out.
func assertUnlocked(t *testing.T, c *Cache) {
	t.Helper()
	for i := range c.groups {
		g := &c.groups[i]
		if !g.mu.TryLock() {
			t.Fatalf("group %d's lock is held", i)
		}
		g.mu.Unlock()
	}
}

// TestByteKeyAllocs pins the entry points the wire server uses: with a
// borrowed key and a destination buffer that already has room, a hit
// copies the value under the lock and allocates nothing, and so does an
// overwrite that fits the entry's buffer. Same implementation as Get
// and Put.
func TestByteKeyAllocs(t *testing.T) {
	for _, pol := range []string{"lru", "rwp"} {
		c := mustNew(t, tinyConfig(pol))
		key, val := []byte("k"), []byte("value-bytes")
		c.PutBytes(key, val)
		dst := make([]byte, 0, 64)
		allocs := testing.AllocsPerRun(200, func() {
			out, hit, found := c.GetAppend(dst[:0], key)
			if !hit || !found || !bytes.Equal(out, val) {
				t.Fatalf("GetAppend = (%q, %v, %v)", out, hit, found)
			}
			if c.PutBytes(key, val) {
				t.Fatal("PutBytes of a resident key reported an insert")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: GetAppend hit + PutBytes overwrite allocate %.1f objects, want 0", pol, allocs)
		}
	}
}

// TestFillAcrossRetargetAllocs: a direct Get fill over a valid victim
// allocates nothing — the value is copied into the victim way's buffer —
// retarget or not: the policy keeps no per-retarget record. A batch is
// 128 Loader fills of fresh keys into a 2x2 cache repartitioning every 4
// set-ops, so it crosses ~32 retarget boundaries; the batch is measured
// whole (AllocsPerRun's per-run average truncates, which would hide an
// amortized slice growth). The warm-up batch is what fills the four
// invalid ways.
func TestFillAcrossRetargetAllocs(t *testing.T) {
	const batch = 128
	cfg := tinyConfig("rwp")
	cfg.RWP.Interval = 4
	val := []byte("value-bytes")
	cfg.Loader = func(string) []byte { return val }
	c := mustNew(t, cfg)
	keys := make([]string, 2*batch) // the warm-up run, then the measured one
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		for _, k := range keys[next : next+batch] {
			if _, hit := c.Get(k); hit {
				t.Fatal("fill stream hit")
			}
		}
		next += batch
	})
	if got := int(allocs); got != 0 {
		t.Errorf("%d Get fills over valid victims allocate %d objects across retargets, want 0 (the victim's buffer is reused)", batch, got)
	}
	if s := c.Stats(); s.Retargets < 32 || s.Loads != uint64(len(keys)) || s.Evictions != uint64(len(keys)-c.Capacity()) {
		t.Fatalf("stream did not fill across retargets: %+v", s)
	}
}

// TestFillAllocs pins what a fill costs inside the cache, per way state:
// into an invalid way exactly one allocation (the way's first value
// buffer), over a valid victim none — Put insert and Loader fill alike,
// the Loader's own value aside (it hands back a shared slice here). A
// victim's buffer is its allocation's whole size class, so a refill a
// few bytes longer than what the way held reuses it too: a 6-byte key
// with a 64-byte value (need 70) leaves an 80-byte buffer that a 9-byte
// key's fill (need 73) fits. Keys are built up front; one set, so every
// fill lands where the test says.
func TestFillAllocs(t *testing.T) {
	const runs = 100 // 2*(runs+1) ways must fit recency.MaxWays
	val, val64 := []byte("value-bytes"), make([]byte, 64)
	keys := make([]string, 2*(runs+1))
	short, long := make([]string, runs+1), make([]string, runs+1)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	for i := range short {
		short[i], long[i] = fmt.Sprintf("h%05d", i), fmt.Sprintf("c%08d", i)
	}
	for _, pol := range []string{"lru", "rwp"} {
		cfg := tinyConfig(pol)
		cfg.Sets, cfg.Ways = 1, len(keys)
		cfg.Loader = func(string) []byte { return val }
		cold := mustNew(t, cfg)
		cfg.Ways = 2
		full := mustNew(t, cfg)
		full.Put("a", val)
		full.Put("b", val)

		if got := fillAllocs(t, cold, keys, val); got != 2 {
			t.Errorf("%s: a Put insert + a Loader fill into invalid ways allocate %.1f objects, want 2 (one value buffer each)", pol, got)
		}
		if got := fillAllocs(t, full, keys, val); got != 0 {
			t.Errorf("%s: a Put insert + a Loader fill over valid victims allocate %.1f objects, want 0", pol, got)
		}
		if s := cold.Stats(); s.Evictions != 0 || s.Fills != uint64(len(keys)) {
			t.Fatalf("%s: cold cache evicted: %+v", pol, s.Counters)
		}
		if s := full.Stats(); s.Evictions != uint64(len(keys)) {
			t.Fatalf("%s: full cache did not evict on every fill: %+v", pol, s.Counters)
		}

		cfg.Ways = len(short)
		grown := mustNew(t, cfg)
		for _, k := range short {
			grown.Put(k, val64)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			grown.Put(long[next], val64)
			next++
		})
		if got := int(allocs); got != 0 {
			t.Errorf("%s: a Put insert needing 73 bytes over victims that held 70 allocates %d objects, want 0 (the size class has room)", pol, got)
		}
		if s := grown.Stats(); s.Evictions != uint64(len(long)) || s.Entries != len(long) {
			t.Fatalf("%s: the longer keys did not each replace a shorter one: %+v", pol, s)
		}
	}
}

// fillAllocs is TestFillAllocs' measured step: a Put insert and a Get
// fill of fresh keys, runs times. It is a named function, not a closure
// the test calls twice: inlined at both calls, that closure let Get's
// buffer escape and read 3 and 1.
func fillAllocs(t *testing.T, c *Cache, keys []string, val []byte) float64 {
	runs := len(keys)/2 - 1 // AllocsPerRun's warm-up call takes a pair too
	next := 0
	return testing.AllocsPerRun(runs, func() {
		if !c.Put(keys[next], val) {
			t.Fatal("Put of a fresh key reported an overwrite")
		}
		if _, hit := c.Get(keys[next+1]); hit {
			t.Fatal("Get of a fresh key hit")
		}
		next += 2
	})
}

// TestGetAppendNeverReturnsLoaderSlice: GetAppend's result is a buffer
// its caller reuses — even with a nil dst it must be a copy of a fill,
// never the Loader's own slice, or the next request on a connection
// would overwrite a value a coalesced fill's waiters are still reading.
func TestGetAppendNeverReturnsLoaderSlice(t *testing.T) {
	fetched := []byte("from-loader")
	cfg := tinyConfig("rwp")
	cfg.Loader = func(string) []byte { return fetched }
	c := mustNew(t, cfg)
	out, hit, found := c.GetAppend(nil, []byte("k"))
	if hit || !found || !bytes.Equal(out, fetched) {
		t.Fatalf("GetAppend fill = (%q, %v, %v)", out, hit, found)
	}
	out[0] = 'X'
	if fetched[0] != 'f' {
		t.Fatal("GetAppend(nil, …) returned the Loader's own slice")
	}
}

// TestGetFillIsPrivate: a Get fill hands back a copy the caller owns,
// never the Loader's slice — a Loader may return a value it shares.
func TestGetFillIsPrivate(t *testing.T) {
	fetched := []byte("from-loader")
	cfg := tinyConfig("rwp")
	cfg.Loader = func(string) []byte { return fetched }
	c := mustNew(t, cfg)
	v, hit := c.Get("k")
	if hit || !bytes.Equal(v, fetched) {
		t.Fatalf("Get fill = (%q, %v)", v, hit)
	}
	v[0] = 'X'
	if fetched[0] != 'f' {
		t.Fatal("Get returned the Loader's own slice")
	}
}

// TestGetMissNoLoaderAllocs pins the other cheap path: a miss without a
// Loader returns (nil, false) and must not allocate at all.
func TestGetMissNoLoaderAllocs(t *testing.T) {
	c := mustNew(t, tinyConfig("rwp"))
	allocs := testing.AllocsPerRun(200, func() {
		if v, hit := c.Get("absent"); hit || v != nil {
			t.Fatal("unexpected hit for absent key")
		}
	})
	if allocs != 0 {
		t.Errorf("Get miss (no loader) allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReentrantLoader locks in the new Loader contract: the fetch runs
// with no lock held, so a Loader may call back into the cache — even
// installing the very key it was asked to load. Before the
// Loader-outside-lock refactor this deadlocked on the cache's mutex.
func TestReentrantLoader(t *testing.T) {
	var c *Cache
	loads := 0
	cfg := tinyConfig("rwp")
	cfg.Loader = func(key string) []byte {
		loads++
		// The fetch runs with no group lock held: a Loader called under
		// one would deadlock on the reentrant Put below.
		assertUnlocked(t, c)
		// Reentrant write of the same key: the cache must survive it,
		// and the resident entry it installs must win the race.
		c.Put(key, []byte("from-put"))
		return []byte("from-loader")
	}
	c = mustNew(t, cfg)

	v, hit := c.Get("k")
	if hit {
		t.Fatal("first Get reported a hit on an empty cache")
	}
	// The miss returns what the Loader fetched...
	if !bytes.Equal(v, []byte("from-loader")) {
		t.Fatalf("Get returned %q, want the loaded value", v)
	}
	// ...but the reentrant Put's value stays resident.
	v, hit = c.Get("k")
	if !hit || !bytes.Equal(v, []byte("from-put")) {
		t.Fatalf("second Get = (%q, %v), want the Put-installed value", v, hit)
	}

	s := c.Stats()
	if loads != 1 || s.Loads != 0 || s.LoadRaces != 1 {
		t.Errorf("loads=%d stats.Loads=%d stats.LoadRaces=%d, want 1/0/1 (fetch happened, install lost the race)", loads, s.Loads, s.LoadRaces)
	}
	if s.GetMisses != s.Loads+s.LoadRaces {
		t.Errorf("conservation broken: misses %d != loads %d + races %d", s.GetMisses, s.Loads, s.LoadRaces)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLoaderValueOwnership: the value a miss returns is owned by the
// caller — mutating it must not corrupt the cached copy.
func TestLoaderValueOwnership(t *testing.T) {
	cfg := tinyConfig("lru")
	cfg.Loader = func(key string) []byte { return []byte("fresh") }
	c := mustNew(t, cfg)

	v, _ := c.Get("k")
	v[0] = 'X'
	got, hit := c.Get("k")
	if !hit || !bytes.Equal(got, []byte("fresh")) {
		t.Fatalf("cached value corrupted through the miss return: %q (hit=%v)", got, hit)
	}
	// Same ownership rule on the hit path.
	got[0] = 'Y'
	again, _ := c.Get("k")
	if !bytes.Equal(again, []byte("fresh")) {
		t.Fatalf("cached value corrupted through the hit return: %q", again)
	}
}
