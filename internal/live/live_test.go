package live

import (
	"fmt"
	"testing"
)

// tinyConfig is a 2-set × 2-way cache for semantics tests.
func tinyConfig(policy string) Config {
	cfg := DefaultConfig()
	cfg.Sets = 2
	cfg.Ways = 2
	cfg.Policy = policy
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 2, Policy: "lru"},
		{Sets: 3, Ways: 2, Policy: "lru"},
		{Sets: 4, Ways: 0, Policy: "lru"},
		{Sets: 8, Ways: 300, Policy: "lru"}, // wider than a recency row
		{Sets: 8, Ways: 257, Policy: "rwp", RWP: DefaultRWPConfig()},
		{Sets: 4, Ways: 2, Policy: "bogus"},
		{Sets: 4, Ways: 2, Policy: "rwp"}, // zero RWP config
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: Validate accepted %+v", i, cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: New accepted %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for _, pol := range []string{"lru", "rwp"} {
		c := mustNew(t, tinyConfig(pol))
		if v, hit := c.Get("a"); hit || v != nil {
			t.Fatalf("%s: Get on empty cache = (%v, %v)", pol, v, hit)
		}
		if !c.Put("a", []byte("alpha")) {
			t.Fatalf("%s: first Put(a) not an insert", pol)
		}
		if c.Put("a", []byte("alpha2")) {
			t.Fatalf("%s: second Put(a) reported insert", pol)
		}
		v, hit := c.Get("a")
		if !hit || string(v) != "alpha2" {
			t.Fatalf("%s: Get(a) = (%q, %v), want (alpha2, true)", pol, v, hit)
		}
		s := c.Stats()
		if s.Gets != 2 || s.GetHits != 1 || s.GetMisses != 1 {
			t.Errorf("%s: gets=%d hits=%d misses=%d, want 2/1/1", pol, s.Gets, s.GetHits, s.GetMisses)
		}
		if s.Puts != 2 || s.PutHits != 1 || s.PutInserts != 1 {
			t.Errorf("%s: puts=%d hits=%d inserts=%d, want 2/1/1", pol, s.Puts, s.PutHits, s.PutInserts)
		}
		if s.Entries != 1 || s.DirtyEntries != 1 {
			t.Errorf("%s: entries=%d dirty=%d, want 1/1", pol, s.Entries, s.DirtyEntries)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

func TestLoaderBackfillIsCleanFill(t *testing.T) {
	cfg := tinyConfig("rwp")
	loads := 0
	cfg.Loader = func(key string) []byte {
		loads++
		return []byte("v:" + key)
	}
	c := mustNew(t, cfg)
	v, hit := c.Get("k")
	if hit || string(v) != "v:k" {
		t.Fatalf("Get miss with loader = (%q, %v), want (v:k, false)", v, hit)
	}
	if loads != 1 {
		t.Fatalf("loader called %d times, want 1", loads)
	}
	s := c.Stats()
	if s.Loads != 1 || s.Fills != 1 || s.FillsDirty != 0 {
		t.Fatalf("loads=%d fills=%d fillsDirty=%d, want 1/1/0", s.Loads, s.Fills, s.FillsDirty)
	}
	if s.Entries != 1 || s.DirtyEntries != 0 {
		t.Fatalf("backfill installed dirty: entries=%d dirty=%d", s.Entries, s.DirtyEntries)
	}
	// The backfilled line is resident now.
	if v, hit := c.Get("k"); !hit || string(v) != "v:k" {
		t.Fatalf("Get after backfill = (%q, %v)", v, hit)
	}
	if loads != 1 {
		t.Fatalf("loader re-called on a hit (%d calls)", loads)
	}
	// A Put dirties the resident clean line.
	c.Put("k", []byte("w"))
	if s := c.Stats(); s.DirtyEntries != 1 || s.PutHits != 1 {
		t.Fatalf("overwrite: dirty=%d putHits=%d, want 1/1", s.DirtyEntries, s.PutHits)
	}
}

func TestReturnedValueIsACopy(t *testing.T) {
	c := mustNew(t, tinyConfig("lru"))
	buf := []byte("orig")
	c.Put("k", buf)
	buf[0] = 'X' // caller mutates its slice after Put
	v, _ := c.Get("k")
	if string(v) != "orig" {
		t.Fatalf("Put did not copy: got %q", v)
	}
	v[0] = 'Y' // caller mutates the returned slice
	v2, _ := c.Get("k")
	if string(v2) != "orig" {
		t.Fatalf("Get did not copy: got %q", v2)
	}
}

func TestEvictionAccounting(t *testing.T) {
	cfg := tinyConfig("lru")
	cfg.Sets = 1 // one set of two ways: third insert evicts
	c := mustNew(t, cfg)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	s := c.Stats()
	if s.Fills != 5 || s.Evictions != 3 || s.DirtyEvictions != 3 {
		t.Fatalf("fills=%d evictions=%d dirtyEvictions=%d, want 5/3/3", s.Fills, s.Evictions, s.DirtyEvictions)
	}
	if s.Entries != 2 {
		t.Fatalf("entries=%d, want 2 (capacity)", s.Entries)
	}
	// LRU: the two most recent keys survive.
	if _, hit := c.Get("k4"); !hit {
		t.Error("k4 (MRU) evicted")
	}
	if _, hit := c.Get("k0"); hit {
		t.Error("k0 (LRU) survived 3 evictions in a 2-way set")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRWPRetargetsByOperationCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sets, cfg.Ways = 16, 4
	cfg.RWP.Interval = 64
	cfg.Loader = func(key string) []byte { return []byte(key) }
	c := mustNew(t, cfg)
	// Mixed read/write traffic over a footprint larger than capacity.
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("k%d", i%64)
		if i%4 == 0 {
			c.Put(key, []byte("w"))
		} else {
			c.Get(key)
		}
	}
	s := c.Stats()
	if s.Retargets == 0 {
		t.Fatal("no repartitionings after 4096 ops with interval 64")
	}
	if len(s.TargetHist) != cfg.Ways+1 {
		t.Fatalf("TargetHist len %d, want %d", len(s.TargetHist), cfg.Ways+1)
	}
	var sets uint64
	for _, n := range s.TargetHist {
		sets += n
	}
	if sets != uint64(cfg.Sets) {
		t.Fatalf("TargetHist covers %d sets, want %d", sets, cfg.Sets)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	cfg := tinyConfig("rwp")
	c := mustNew(t, cfg)
	c.Put("k", []byte("v"))
	c.Get("k")
	c.ResetStats()
	s := c.Stats()
	if s.Gets != 0 || s.Puts != 0 || s.Fills != 0 {
		t.Fatalf("counters survived reset: %+v", s.Counters)
	}
	if s.Entries != 1 {
		t.Fatalf("reset dropped contents: entries=%d", s.Entries)
	}
	if v, hit := c.Get("k"); !hit || string(v) != "v" {
		t.Fatalf("Get after reset = (%q, %v)", v, hit)
	}
	if got := c.Stats().Gets; got != 1 {
		t.Fatalf("Gets after reset = %d, want 1 (the post-reset Get)", got)
	}
}

func TestHashKeyStable(t *testing.T) {
	// Pin a few values: the hash decides set placement, so a silent
	// change would reshuffle every deployment's key layout.
	pinned := map[string]uint64{
		"":    0xf52a15e9a9b5e89b,
		"a":   0x02c0bdbf481420f8,
		"key": 0x487eb6f7e0ea7e7c,
	}
	for k, want := range pinned {
		if got := HashKey(k); got != want {
			t.Errorf("HashKey(%q) = %#x, want %#x", k, got, want)
		}
	}
	if HashKey("a") == HashKey("b") {
		t.Error("trivial collision")
	}
}

func TestCapacityAndConfig(t *testing.T) {
	cfg := tinyConfig("lru")
	c := mustNew(t, cfg)
	if c.Capacity() != 4 {
		t.Errorf("Capacity = %d, want 4", c.Capacity())
	}
	if got := c.Config().Policy; got != "lru" {
		t.Errorf("Config().Policy = %q", got)
	}
}
