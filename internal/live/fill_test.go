package live_test

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/probe"
)

// Tests for the stampede defenses (fill.go): singleflight coalescing,
// negative caching, and lease tokens. The concurrent tests here are
// choreographed — loaders block on channels or spin on observable
// counters — so every assertion is exact, not statistical, and all of
// them hold under -race (scripts/check.sh runs them so).

// defendedConfig is the shared starting point: small so choreography
// is simple, LRU so Sets=1 is legal.
func defendedConfig() live.Config {
	cfg := live.DefaultConfig()
	cfg.Sets = 64
	cfg.Ways = 4
	cfg.Policy = "lru"
	return cfg
}

// assertLaw checks the stampede conservation law at rest: every Get
// miss resolved to exactly one of the six counters.
func assertLaw(t *testing.T, s live.Stats) {
	t.Helper()
	resolved := s.Loads + s.LoadRaces + s.LoadAbsents + s.CoalescedLoads + s.NegHits + s.NegInserts
	if resolved != s.GetMisses {
		t.Errorf("conservation broken: loads %d + races %d + absents %d + coalesced %d + neg hits %d + neg inserts %d != get misses %d",
			s.Loads, s.LoadRaces, s.LoadAbsents, s.CoalescedLoads, s.NegHits, s.NegInserts, s.GetMisses)
	}
}

// TestStormSingleLoad is the acceptance test for the tentpole: a flash
// crowd of 8 concurrent clients missing on one cold key issues exactly
// one Loader call. The loader refuses to return until the other seven
// misses have coalesced (CoalescedLoads is incremented under the group
// lock before a waiter blocks), so the storm is total by construction:
// all eight Gets are in flight on the same key at once.
func TestStormSingleLoad(t *testing.T) {
	const clients = 8
	want := []byte("storm-value")
	var calls atomic.Uint64
	var c *live.Cache
	cfg := defendedConfig()
	cfg.Coalesce = true
	cfg.Loader = func(key string) []byte {
		calls.Add(1)
		for c.Stats().CoalescedLoads != clients-1 {
			runtime.Gosched()
		}
		return append([]byte(nil), want...)
	}
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = c.Get("storm")
		}(i)
	}
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("storm of %d clients issued %d Loader calls, want exactly 1", clients, n)
	}
	for i, v := range got {
		if !bytes.Equal(v, want) {
			t.Fatalf("client %d got %q, want %q", i, v, want)
		}
	}
	s := c.Stats()
	if s.GetMisses != clients || s.Loads != 1 || s.CoalescedLoads != clients-1 {
		t.Fatalf("misses %d / loads %d / coalesced %d, want %d / 1 / %d",
			s.GetMisses, s.Loads, s.CoalescedLoads, clients, clients-1)
	}
	assertLaw(t, s)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateLoadRegression pins the failure mode the tentpole
// exists to remove. The undefended unlocked-fill path (PR-6) lets two
// concurrent misses on one key both reach the Loader — the test holds
// the first call open until the second arrives, proving the duplicate
// is real, not a timing accident. The coalesced subtest replays the
// same choreography and shows the second miss waits instead.
func TestDuplicateLoadRegression(t *testing.T) {
	t.Run("undefended-duplicates", func(t *testing.T) {
		var calls atomic.Uint64
		entered1 := make(chan struct{})
		entered2 := make(chan struct{})
		release := make(chan struct{})
		cfg := defendedConfig()
		cfg.Loader = func(key string) []byte {
			switch calls.Add(1) {
			case 1:
				close(entered1)
			case 2:
				close(entered2)
			}
			<-release
			return []byte("dup")
		}
		c, err := live.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); c.Get("k") }()
		<-entered1 // first miss is inside the Loader
		go func() { defer wg.Done(); c.Get("k") }()
		<-entered2 // second miss joined it: the stampede, pinned
		close(release)
		wg.Wait()

		s := c.Stats()
		if calls.Load() != 2 || s.Loads != 1 || s.LoadRaces != 1 {
			t.Fatalf("undefended path: %d calls, loads %d, races %d; want 2 duplicate calls resolving as 1 load + 1 race",
				calls.Load(), s.Loads, s.LoadRaces)
		}
		assertLaw(t, s)
	})

	t.Run("coalesced-single", func(t *testing.T) {
		var calls atomic.Uint64
		entered := make(chan struct{})
		release := make(chan struct{})
		cfg := defendedConfig()
		cfg.Coalesce = true
		cfg.Loader = func(key string) []byte {
			if calls.Add(1) == 1 {
				close(entered)
			}
			<-release
			return []byte("dup")
		}
		c, err := live.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); c.Get("k") }()
		<-entered // leader is inside the Loader
		go func() { defer wg.Done(); c.Get("k") }()
		// The second miss must coalesce, never load: wait until it has
		// (the counter moves before it blocks on the fill).
		for c.Stats().CoalescedLoads == 0 {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()

		s := c.Stats()
		if calls.Load() != 1 || s.Loads != 1 || s.CoalescedLoads != 1 || s.LoadRaces != 0 {
			t.Fatalf("coalesced path: %d calls, loads %d, coalesced %d, races %d; want 1/1/1/0",
				calls.Load(), s.Loads, s.CoalescedLoads, s.LoadRaces)
		}
		assertLaw(t, s)
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// reqHook adapts a function to probe.ReqProbe.
type reqHook func(probe.ReqEvent)

func (h reqHook) ReqEvent(ev probe.ReqEvent) { h(ev) }

// TestCoalescedLeaderResultIsPrivate: under Coalesce, the leader's Get
// hands its caller a private copy, never the fill's shared value that
// parked waiters copy from after it lands. The choreography makes the
// overlap certain: a waiter coalesces while the leader's Loader is
// held, and the waiter's request event (emitted before it copies the
// shared value) is held until the leader's caller has written into its
// result.
func TestCoalescedLeaderResultIsPrivate(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	written := make(chan struct{})
	cfg := defendedConfig()
	cfg.Coalesce = true
	cfg.Loader = func(string) []byte {
		close(entered) // one Loader call: the waiter coalesces
		<-release
		return []byte("from-loader")
	}
	cfg.ReqLog = reqHook(func(ev probe.ReqEvent) {
		if ev.Outcome == probe.OutcomeFill && ev.Cost == live.CostCoalesced {
			<-written
		}
	})
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leader, waiter := make(chan []byte), make(chan []byte)
	go func() { v, _ := c.Get("k"); leader <- v }()
	<-entered
	go func() { v, _ := c.Get("k"); waiter <- v }()
	for c.Stats().CoalescedLoads == 0 {
		runtime.Gosched()
	}
	close(release)
	v := <-leader
	v[0] = 'X'
	close(written)
	if got := <-waiter; string(got) != "from-loader" {
		t.Fatalf("waiter got %q: the leader's caller wrote into the fill's shared value", got)
	}
	if string(v) != "Xrom-loader" {
		t.Fatalf("leader got %q", v)
	}
}

// leaseCache builds a Sets=1 cache (every key shares one op-count
// clock) whose loader blocks its first call until released and answers
// later calls immediately — the shape of a stuck backend fetch.
func leaseCache(t *testing.T, leaseOps uint64) (c *live.Cache, calls *atomic.Uint64, entered, release chan struct{}) {
	t.Helper()
	calls = new(atomic.Uint64)
	entered = make(chan struct{})
	release = make(chan struct{})
	cfg := defendedConfig()
	cfg.Sets = 1
	cfg.Coalesce = true
	cfg.LeaseOps = leaseOps
	cfg.Loader = func(key string) []byte {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
			return []byte("stale")
		}
		return []byte("fresh")
	}
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, calls, entered, release
}

// TestLeaseExpiry: a leader whose Loader call outlives LeaseOps set
// operations is deposed — the next miss fetches for itself — and the
// deposed leader's late install demotes to a LoadRace, exactly as a
// lost install race does on the undefended path. The leader's miss and
// the deposing miss count as operations, so ops = lease-1 further ops
// is the first count that deposes (TestLeaseHolds has lease-2). A lease
// read off a clock lands on the wrong side of that boundary at a lease
// of 2 ops or of 1000.
func TestLeaseExpiry(t *testing.T) {
	for _, tc := range []struct{ lease, ops int }{{5, 6}, {2, 1}, {1000, 999}} {
		c, calls, entered, release := leaseCache(t, uint64(tc.lease))
		var wg sync.WaitGroup
		wg.Add(1)
		var stale []byte
		go func() { defer wg.Done(); stale, _ = c.Get("k") }()
		<-entered // leader stuck in the Loader, lease clock at op 1
		// Advance the set's op-count past the lease while the fetch hangs.
		for i := range tc.ops {
			c.Put(strconv.Itoa(i), []byte("x"))
		}
		// This miss finds the in-flight fill over-lease, deposes it, and
		// fetches for itself — without blocking on the stuck leader. Had
		// it judged the lease live, it would wait on the leader; the
		// counters tell the two apart without a clock.
		got := make(chan []byte, 1)
		go func() { v, _ := c.Get("k"); got <- v }()
		for s := c.Stats(); s.LeaseExpires+s.CoalescedLoads == 0; s = c.Stats() {
			runtime.Gosched()
		}
		if s := c.Stats(); s.CoalescedLoads != 0 {
			close(release)
			wg.Wait()
			t.Fatalf("lease %d: the miss waited on the stuck leader (coalesced %d) instead of deposing it after %d ops",
				tc.lease, s.CoalescedLoads, tc.ops)
		}
		fresh := <-got
		if !bytes.Equal(fresh, []byte("fresh")) {
			t.Fatalf("lease %d: deposing Get returned %q, want the fresh fetch", tc.lease, fresh)
		}
		close(release)
		wg.Wait()
		if !bytes.Equal(stale, []byte("stale")) {
			t.Fatalf("lease %d: deposed leader returned %q, want its own fetch", tc.lease, stale)
		}

		s := c.Stats()
		if calls.Load() != 2 || s.LeaseExpires != 1 || s.Loads != 1 || s.LoadRaces != 1 || s.CoalescedLoads != 0 {
			t.Fatalf("lease %d: calls %d, lease expires %d, loads %d, races %d, coalesced %d; want 2/1/1/1/0",
				tc.lease, calls.Load(), s.LeaseExpires, s.Loads, s.LoadRaces, s.CoalescedLoads)
		}
		assertLaw(t, s)
		// The fresh value, not the deposed leader's, is resident.
		if v, hit := c.Get("k"); !hit || !bytes.Equal(v, []byte("fresh")) {
			t.Fatalf("lease %d: resident value %q (hit=%v), want the deposing fetch's", tc.lease, v, hit)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeaseHolds is the control: the same choreography inside the
// lease window coalesces instead of deposing.
func TestLeaseHolds(t *testing.T) {
	for _, tc := range []struct{ lease, ops int }{{100, 6}, {2, 0}, {1000, 998}} {
		c, calls, entered, release := leaseCache(t, uint64(tc.lease))
		var wg sync.WaitGroup
		wg.Add(2)
		var got [2][]byte
		go func() { defer wg.Done(); got[0], _ = c.Get("k") }()
		<-entered
		for i := range tc.ops {
			c.Put(strconv.Itoa(i), []byte("x"))
		}
		go func() { defer wg.Done(); got[1], _ = c.Get("k") }()
		for s := c.Stats(); s.CoalescedLoads+s.LeaseExpires == 0; s = c.Stats() {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()

		s := c.Stats()
		if calls.Load() != 1 || s.LeaseExpires != 0 || s.CoalescedLoads != 1 {
			t.Fatalf("lease %d after %d ops: calls %d, lease expires %d, coalesced %d; want 1/0/1 inside the lease window",
				tc.lease, tc.ops, calls.Load(), s.LeaseExpires, s.CoalescedLoads)
		}
		for i, v := range got {
			if !bytes.Equal(v, []byte("stale")) {
				t.Fatalf("lease %d: client %d got %q, want the leader's result", tc.lease, i, v)
			}
		}
		assertLaw(t, s)
	}
}

// TestResetStatsClockLease: ResetStats clears the ledger, not the set
// clock a lease is measured on. A leader parked in the Loader across a
// ResetStats keeps its lease, so the next miss on the key coalesces
// onto it — one Loader call — instead of finding the lease "expired"
// by a clock that ran backwards past its birth.
func TestResetStatsClockLease(t *testing.T) {
	c, calls, entered, release := leaseCache(t, 100)
	for i := 0; i < 50; i++ { // run the set's clock well past zero
		c.Put("w"+strconv.Itoa(i), []byte("x"))
	}
	var wg sync.WaitGroup
	wg.Add(2)
	var got [2][]byte
	go func() { defer wg.Done(); got[0], _ = c.Get("k") }()
	<-entered // the lease is born at op 51
	c.ResetStats()
	go func() { defer wg.Done(); got[1], _ = c.Get("k") }()
	// The second miss either coalesces (it blocks) or deposes the leader
	// (it loads for itself); both are counted before either happens.
	for s := c.Stats(); s.CoalescedLoads+s.LeaseExpires == 0; s = c.Stats() {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	s := c.Stats()
	if calls.Load() != 1 || s.LeaseExpires != 0 || s.CoalescedLoads != 1 {
		t.Fatalf("calls %d, lease expires %d, coalesced %d; want 1/0/1: a ResetStats deposed a live lease",
			calls.Load(), s.LeaseExpires, s.CoalescedLoads)
	}
	for i, v := range got {
		if !bytes.Equal(v, []byte("stale")) {
			t.Fatalf("client %d got %q, want the leader's result", i, v)
		}
	}
}

// TestResetStatsClockNegVerdict: an absence verdict written with NegOps
// 8 is believed for exactly 8 operations on its set — 7 local answers,
// then the backend again — whether or not ResetStats ran in between.
// The set has seen 40 ops before the verdict, so a clock that restarted
// at the reset would keep the verdict for 40 ops too many.
func TestResetStatsClockNegVerdict(t *testing.T) {
	for _, reset := range []bool{false, true} {
		cfg := defendedConfig()
		cfg.Sets = 1
		cfg.NegOps = 8
		c, calls := negCache(t, cfg)
		for i := 0; i < 40; i++ {
			c.Put("w"+strconv.Itoa(i), []byte("x"))
		}
		c.Get("absent:0") // the verdict, written at op 41
		if reset {
			c.ResetStats()
		}
		for i := 1; i <= 8; i++ {
			c.Get("absent:0")
			want := uint64(1)
			if i == 8 {
				want = 2 // op 49: the window has closed
			}
			if got := calls.Load(); got != want {
				t.Fatalf("reset=%v: %d ops after the verdict the backend has been asked %d times, want %d", reset, i, got, want)
			}
		}
		if s := c.Stats(); s.NegHits != 7 {
			t.Errorf("reset=%v: %d negative hits, want 7", reset, s.NegHits)
		}
	}
}

// negCache builds a small cache whose loader counts calls and
// reports keys under "absent:" missing; everything else loads "present".
func negCache(t *testing.T, cfg live.Config) (*live.Cache, *atomic.Uint64) {
	t.Helper()
	calls := new(atomic.Uint64)
	cfg.Loader = func(key string) []byte {
		calls.Add(1)
		if len(key) >= 7 && key[:7] == "absent:" {
			return nil
		}
		return []byte("present")
	}
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, calls
}

// TestNegativeCacheWindow: an absence verdict is believed for exactly
// NegOps operations on the set's own clock, then re-verified. With one
// key on one set the schedule is exact: Get 1 inserts (clock 1, expiry
// 11), Gets 2..10 answer locally, Get 11 reaches the backend again.
func TestNegativeCacheWindow(t *testing.T) {
	cfg := defendedConfig()
	cfg.NegOps = 10
	c, calls := negCache(t, cfg)
	for i := 0; i < 11; i++ {
		if v, hit := c.Get("absent:0"); v != nil || hit {
			t.Fatalf("Get %d: absent key answered %q, hit=%v", i+1, v, hit)
		}
	}
	s := c.Stats()
	if calls.Load() != 2 || s.NegInserts != 2 || s.NegHits != 9 {
		t.Fatalf("calls %d, neg inserts %d, neg hits %d; want 2 backend probes and 9 local answers over 11 Gets",
			calls.Load(), s.NegInserts, s.NegHits)
	}
	if s.Loads != 0 || s.GetMisses != 11 {
		t.Fatalf("loads %d, misses %d; want 0 loads (key truly absent), 11 misses", s.Loads, s.GetMisses)
	}
	assertLaw(t, s)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeCachePutInvalidates: a write of a negged key kills the
// verdict immediately — negative answers never shadow a Put.
func TestNegativeCachePutInvalidates(t *testing.T) {
	cfg := defendedConfig()
	cfg.NegOps = 1 << 20
	c, calls := negCache(t, cfg)
	c.Get("absent:0")
	c.Get("absent:0")
	if calls.Load() != 1 {
		t.Fatalf("window not engaged: %d backend calls", calls.Load())
	}
	c.Put("absent:0", []byte("written"))
	if v, hit := c.Get("absent:0"); !hit || !bytes.Equal(v, []byte("written")) {
		t.Fatalf("Get after Put = %q, hit=%v; negative verdict shadowed the write", v, hit)
	}
	s := c.Stats()
	if s.NegHits != 1 || s.NegInserts != 1 {
		t.Fatalf("neg hits %d, inserts %d, want 1/1", s.NegHits, s.NegInserts)
	}
	assertLaw(t, s)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeCacheFillInvalidates: when the backend recovers (starts
// returning the key), the expired verdict is replaced by a real fill
// and the entry is never both resident and negged (CheckInvariants).
func TestNegativeCacheFillInvalidates(t *testing.T) {
	cfg := defendedConfig()
	cfg.NegOps = 4
	var calls atomic.Uint64
	cfg.Loader = func(key string) []byte {
		if calls.Add(1) == 1 {
			return nil // first probe: backend outage
		}
		return []byte("recovered")
	}
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // insert at clock 1 (expiry 5), neg hits at 2..4
		c.Get("k")
	}
	if v, hit := c.Get("k"); hit || !bytes.Equal(v, []byte("recovered")) {
		t.Fatalf("Get past the window = %q (hit=%v), want the recovered fill", v, hit)
	}
	if v, hit := c.Get("k"); !hit || !bytes.Equal(v, []byte("recovered")) {
		t.Fatalf("fill did not install: %q, hit=%v", v, hit)
	}
	s := c.Stats()
	if calls.Load() != 2 || s.NegInserts != 1 || s.NegHits != 3 || s.Loads != 1 {
		t.Fatalf("calls %d, inserts %d, hits %d, loads %d; want 2/1/3/1", calls.Load(), s.NegInserts, s.NegHits, s.Loads)
	}
	assertLaw(t, s)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeCacheBounded: the per-set verdict slice is capped at the
// set's associativity; overflow evicts the soonest-expiring verdict,
// whose key then costs one more backend probe.
func TestNegativeCacheBounded(t *testing.T) {
	cfg := defendedConfig()
	cfg.Sets = 1
	cfg.Ways = 2
	cfg.NegOps = 100
	c, calls := negCache(t, cfg)
	for _, k := range []string{"absent:0", "absent:1", "absent:2", "absent:3"} {
		c.Get(k) // 2-entry cap: 2 and 3 evict the verdicts for 0 and 1
	}
	c.Get("absent:0") // evicted: backend again
	c.Get("absent:3") // retained: local
	s := c.Stats()
	if calls.Load() != 5 || s.NegInserts != 5 || s.NegHits != 1 {
		t.Fatalf("calls %d, inserts %d, hits %d; want 5 backend probes and 1 local answer",
			calls.Load(), s.NegInserts, s.NegHits)
	}
	assertLaw(t, s)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The stampede scenarios below score the defenses by the only number a
// backend operator cares about — how many times the Loader was invoked
// — at the serving geometry (1024 sets x 16 ways), undefended vs
// defended. Every count is exact: the storms rendezvous on the cache's
// own miss counter, the scan is single-goroutine.
const (
	stormClients = 8
	stormRounds  = 32
	scanOps      = 20_000
)

// countingLoader wraps loadgen's backing store (hole at the absent
// keyspace) with a call counter; gate, if non-nil, runs before each
// fetch returns.
func countingLoader(calls *atomic.Uint64, gate func()) live.Loader {
	inner := loadgen.AbsentLoader(0)
	return func(key string) []byte {
		calls.Add(1)
		if gate != nil {
			gate()
		}
		return inner(key)
	}
}

// checkLeg asserts what every leg must satisfy at rest — structural
// invariants and the six-term conservation law — and that no miss went
// uncounted.
func checkLeg(t *testing.T, c *live.Cache, wantMisses uint64) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	assertLaw(t, s)
	if s.GetMisses != wantMisses {
		t.Errorf("leg counted %d Get misses, want %d", s.GetMisses, wantMisses)
	}
}

// stormLeg runs stormRounds synchronized miss storms of stormClients
// goroutines each and returns the backend Loader call count. The
// loader spins (on the cache's own miss counter — op count, not wall
// clock) until the whole round has missed, so no client can sneak a
// hit before the storm resolves and the count is a deterministic
// function of the configuration. absent selects the flood variant:
// every round hammers one key the backend does not have.
func stormLeg(t *testing.T, cfg live.Config, absent bool) uint64 {
	t.Helper()
	var calls, wantMisses atomic.Uint64
	var c *live.Cache
	cfg.Loader = countingLoader(&calls, func() {
		for c.Stats().GetMisses < wantMisses.Load() {
			runtime.Gosched()
		}
	})
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < stormRounds; r++ {
		key := loadgen.FlashKey(uint64(r))
		if absent {
			key = loadgen.AbsentKey(0)
		}
		wantMisses.Store(c.Stats().GetMisses + stormClients)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < stormClients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c.Get(key)
			}()
		}
		close(start)
		wg.Wait()
	}
	checkLeg(t, c, stormClients*stormRounds)
	return calls.Load()
}

// scanLeg replays a single-goroutine adv:scan flood — a cyclic sweep
// of the loadgen.ScanKeys-key absent keyspace — and returns the
// backend Loader call count.
func scanLeg(t *testing.T, cfg live.Config) uint64 {
	t.Helper()
	var calls atomic.Uint64
	cfg.Loader = countingLoader(&calls, nil)
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadgen.NewStream(loadgen.AdvScan, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.Run(c, s, scanOps)
	checkLeg(t, c, scanOps)
	return calls.Load()
}

// TestStampedeLoadCounts pins EXPERIMENTS.md L4: a miss storm must not
// reach the backend as a storm.
//
//	flash-storm   32 rounds of 8 clients missing one cold key at once:
//	              undefended every miss is a Loader call (256);
//	              coalesced, one leader per round (32, the floor for 32
//	              distinct cold keys).
//	absent-flood  the same crowd on a key the backend does not have.
//	              Absences never install, so undefended all 256 misses
//	              hit the backend; coalescing plus a flood-spanning
//	              verdict needs exactly one fetch.
//	scan-neg      20000 gets cycling 4096 absent keys: each key's first
//	              visit records a verdict (4096 calls), the 64-op
//	              windowed revisits answer locally. Capacity-shaped:
//	              sets*ways must cover the cycle or verdicts are evicted
//	              before their first revisit.
func TestStampedeLoadCounts(t *testing.T) {
	for _, sc := range []struct {
		name    string
		leg     func(*testing.T, live.Config) uint64
		negOps  uint64
		off, on uint64
	}{
		{"flash-storm", func(t *testing.T, cfg live.Config) uint64 { return stormLeg(t, cfg, false) }, 0, 256, 32},
		{"absent-flood", func(t *testing.T, cfg live.Config) uint64 { return stormLeg(t, cfg, true) }, 1 << 30, 256, 1},
		{"scan-neg", scanLeg, 64, 20000, 4096},
	} {
		t.Run(sc.name, func(t *testing.T) {
			cfg := live.DefaultConfig() // 1024 x 16
			if off := sc.leg(t, cfg); off != sc.off {
				t.Errorf("undefended: %d Loader calls, want %d", off, sc.off)
			}
			cfg.Coalesce = true
			cfg.NegOps = sc.negOps
			if on := sc.leg(t, cfg); on != sc.on {
				t.Errorf("defended: %d Loader calls, want %d", on, sc.on)
			}
		})
	}
}
