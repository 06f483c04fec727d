package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/backend"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
	"rwp/internal/probe"
)

// collectLog is the RunLog that keeps everything — what the router
// itself no longer does. Tests that compare whole runs wire one in.
type collectLog struct {
	windows []probe.ShardWindow
	cmds    []Command
}

func (l *collectLog) Window(ws []probe.ShardWindow) error {
	l.windows = append(l.windows, ws...) // copies: ws is the router's scratch
	return nil
}

func (l *collectLog) Command(cmd Command) error {
	l.cmds = append(l.cmds, cmd)
	return nil
}

// testCacheConfig is the shared per-node geometry: small enough to
// force evictions under the test streams, RWP policy so the merged
// document exercises every section.
func testCacheConfig() live.Config {
	return live.Config{
		Sets: 256, Ways: 4,
		Policy: "rwp", RWP: live.DefaultRWPConfig(),
		Loader: loadgen.Loader(32),
	}
}

func testStream(t *testing.T, n int) []loadgen.Op {
	t.Helper()
	h, err := loadgen.NewHotspot(loadgen.HotspotConfig{
		HotKeys: 16, ColdKeys: 4096,
		HotFrac: 0.7, WriteFrac: 0.25,
		ValueSize: 32, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return loadgen.Take(h, n)
}

// TestClusterMatchesSingleNode is the cluster layer's transport-
// equivalence anchor: a replication-factor-1 cluster (manager off) at
// any node count and any ring-shard count produces a merged stats
// document byte-identical to one node absorbing the whole stream. This
// holds because a ring shard is a contiguous cache-set range and each
// set's entire op subsequence lands on exactly one node.
func TestClusterMatchesSingleNode(t *testing.T) {
	ops := testStream(t, 20000)
	single, err := live.New(testCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		loadgen.Apply(single, op)
	}
	want, err := single.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 3, 5} {
		for _, ringShards := range []int{16, 32} {
			h, err := NewHarness(HarnessConfig{
				Nodes:      nodes,
				RingShards: ringShards,
				Cache:      testCacheConfig(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Client().Replay(ops); err != nil {
				t.Fatal(err)
			}
			got, err := h.StatsJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("nodes=%d ringShards=%d: merged stats differ from single node\nmerged: %s\nsingle: %s",
					nodes, ringShards, got, want)
			}
			if err := h.Close(); err != nil {
				t.Errorf("nodes=%d ringShards=%d: Close: %v", nodes, ringShards, err)
			}
		}
	}
}

// managedOutcome is what one managed harness run leaves behind.
type managedOutcome struct {
	doc           []byte
	log           *collectLog
	applied       int
	snaps, resets int
}

// managedRun replays ops through a 3-node harness with the control loop
// active and returns the merged document, the run log, the router's
// applied-command count and its catch-up counts.
func managedRun(t *testing.T, ops []loadgen.Op) managedOutcome {
	t.Helper()
	mgr, err := NewManager(ManagerConfig{Window: 1024, HotReads: 128, ColdReads: 16})
	if err != nil {
		t.Fatal(err)
	}
	log := new(collectLog)
	h, err := NewHarness(HarnessConfig{
		Nodes:      3,
		RingShards: 16,
		Cache:      testCacheConfig(),
		Manager:    mgr,
		Log:        log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Client().Replay(ops); err != nil {
		t.Fatal(err)
	}
	doc, err := h.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, resets := h.Client().CatchupCounts()
	return managedOutcome{doc, log, h.Client().Applied(), snaps, resets}
}

// TestManagedRunBitIdentical pins whole-run determinism with the
// control loop active: two identical managed runs produce identical
// merged documents, window journals, applied replica commands and
// catch-up counts.
func TestManagedRunBitIdentical(t *testing.T) {
	ops := testStream(t, 12000)
	a, b := managedRun(t, ops), managedRun(t, ops)
	if !bytes.Equal(a.doc, b.doc) {
		t.Errorf("two identical managed runs produced different merged stats:\n%s\nvs\n%s", a.doc, b.doc)
	}
	wa, wb := a.log.windows, b.log.windows
	if len(wa) != len(wb) {
		t.Fatalf("window journals differ in length: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("window record %d differs: %+v vs %+v", i, wa[i], wb[i])
		}
	}
	cmdA, cmdB := a.log.cmds, b.log.cmds
	if len(cmdA) != len(cmdB) {
		t.Fatalf("command streams differ in length: %d vs %d", len(cmdA), len(cmdB))
	}
	for i := range cmdA {
		if cmdA[i] != cmdB[i] {
			t.Fatalf("command %d differs: %v vs %v", i, cmdA[i], cmdB[i])
		}
	}
	if a.snaps != b.snaps || a.resets != b.resets {
		t.Errorf("catch-up counts differ: %d/%d vs %d/%d", a.snaps, a.resets, b.snaps, b.resets)
	}
}

// TestManagedRunExercisesLoop: the managed test stream must drive the
// control loop — replica commands applied, counted as the router's log
// received them, and replica adds synced warm rather than by the cold
// fallback. Without it the determinism pin above would hold vacuously.
func TestManagedRunExercisesLoop(t *testing.T) {
	r := managedRun(t, testStream(t, 12000))
	if len(r.log.cmds) == 0 {
		t.Error("managed run applied no replica commands — test stream too tame")
	}
	if r.applied != len(r.log.cmds) {
		t.Errorf("router counts %d applied commands, its log received %d", r.applied, len(r.log.cmds))
	}
	if r.snaps == 0 {
		t.Error("managed run performed no warm catch-ups — replica adds took the cold fallback")
	}
}

// TestBatchFanout pins MGet/MPut routing: batches split per node and
// the merged results come back in request order with single-op
// semantics.
func TestBatchFanout(t *testing.T) {
	h, err := NewHarness(HarnessConfig{
		Nodes:      3,
		RingShards: 16,
		Cache:      testCacheConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	cl := h.Client()

	kvs := make([]proto.KV, 64)
	keys := make([]string, 64)
	for i := range kvs {
		keys[i] = loadgen.HotKey(i)
		kvs[i] = proto.KV{Key: keys[i], Value: loadgen.Value(keys[i], 32)}
	}
	ins, err := cl.MPut(kvs)
	if err != nil {
		t.Fatal(err)
	}
	for i, flag := range ins {
		if !flag {
			t.Errorf("MPut %d: fresh key not inserted", i)
		}
	}
	ins, err = cl.MPut(kvs)
	if err != nil {
		t.Fatal(err)
	}
	for i, flag := range ins {
		if flag {
			t.Errorf("MPut %d: overwrite reported as insert", i)
		}
	}
	got, err := cl.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("MGet returned %d results for %d keys", len(got), len(keys))
	}
	for i, g := range got {
		if g.Status != proto.StatusHit {
			t.Errorf("MGet %d (%s): status %v, want hit", i, keys[i], g.Status)
		}
		if !bytes.Equal(g.Value, kvs[i].Value) {
			t.Errorf("MGet %d (%s): wrong value", i, keys[i])
		}
	}
	// A key no node has ever seen, with the loader on: fill.
	res, err := cl.MGet([]string{"never-written"})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != proto.StatusFill {
		t.Errorf("unseen key status %v, want fill", res[0].Status)
	}
}

// TestRouterMGetAllocs pins the routed batch read at no allocation: a
// 64-key MGet of resident 64-byte values through two nodes. The
// router's merged result, the nodes' replies and values and the
// servers' responses are all scratch. AllocsPerRun counts the server
// goroutines too. The routed batch write of the same 64 keys, each an
// overwrite of a same-size value, allocates nothing either.
func TestRouterMGetAllocs(t *testing.T) {
	// The nodes are proto.ServeConn over net.Pipe, as every harness
	// node is; the subtest names that transport.
	t.Run("pipe", func(t *testing.T) {
		h, err := NewHarness(HarnessConfig{Nodes: 2, RingShards: 16, Cache: testCacheConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		cl := h.Client()
		kvs := make([]proto.KV, 64)
		keys := make([]string, len(kvs))
		for i := range kvs {
			keys[i] = loadgen.HotKey(i)
			kvs[i] = proto.KV{Key: keys[i], Value: loadgen.Value(keys[i], 64)}
		}
		if _, err := cl.MPut(kvs); err != nil {
			t.Fatal(err)
		}
		mget := func() {
			got, err := cl.MGet(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				if g.Status != proto.StatusHit || !bytes.Equal(g.Value, kvs[i].Value) {
					t.Fatalf("MGet %d (%s): status %v, value %q, want a hit on its own value", i, keys[i], g.Status, g.Value)
				}
			}
		}
		mput := func() {
			if _, err := cl.MPut(kvs); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range []struct {
			name string
			call func()
		}{{"MGet", mget}, {"MPut", mput}} {
			for i := 0; i < 200; i++ { // grow every scratch, cross window boundaries
				op.call()
			}
			if allocs := testing.AllocsPerRun(200, op.call); allocs != 0 {
				t.Errorf("64-key %s allocates %.0f objects per call, want 0", op.name, allocs)
			}
		}
	})
}

// TestRouterValuesSurviveWindowBoundary: a window that closes inside an
// MGet applies its AddReplica — a SNAP→RESTORE catch-up, or the RESET
// fallback — after the MGet has gathered its values from the nodes'
// reply scratch and before it returns them. The range operations must
// leave those values intact, on either arm.
func TestRouterValuesSurviveWindowBoundary(t *testing.T) {
	const window = 64
	for _, cold := range []bool{false, true} {
		// pipe names the transport every harness node is served over.
		t.Run(fmt.Sprintf("pipe/nocatchup=%v", cold), func(t *testing.T) {
			mgr, err := NewManager(ManagerConfig{Window: window, HotReads: window / 2, ColdReads: 0})
			if err != nil {
				t.Fatal(err)
			}
			h, err := NewHarness(HarnessConfig{
				Nodes: 2, RingShards: 16, Cache: testCacheConfig(),
				Manager: mgr, NoCatchup: cold,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			cl := h.Client()
			// hot is one window of keys on one shard: every MGet of it
			// closes a window inside the call, and the shard is hot in
			// it. other is one window of keys the other node serves:
			// in the same MGet they put values in the scratch of the
			// node the replica add syncs. On their own they cool the
			// hot shard, which drops its replica, so the next hot MGet
			// adds one again.
			ring := h.Ring()
			shard := ring.KeyShard(loadgen.HotKey(0))
			var hot, other []string
			for i := 0; len(hot) < window || len(other) < window; i++ {
				switch key := loadgen.HotKey(i); {
				case ring.KeyShard(key) == shard:
					hot = append(hot, key)
				case ring.Primary(ring.KeyShard(key)) != ring.Primary(shard):
					other = append(other, key)
				}
			}
			hot, other = hot[:window], other[:window]
			const rounds = 8
			for r := 0; r < rounds; r++ {
				for _, keys := range [][]string{append(hot, other...), other} {
					got, err := cl.MGet(keys)
					if err != nil {
						t.Fatal(err)
					}
					for i, g := range got {
						if want := loadgen.Value(keys[i], 32); !bytes.Equal(g.Value, want) {
							t.Fatalf("round %d: MGet %d (%s) = %v %x, want %x", r, i, keys[i], g.Status, g.Value, want)
						}
					}
				}
			}
			snaps, resets := cl.CatchupCounts()
			if adds := snaps + resets; adds < rounds || (cold && snaps != 0) || (!cold && resets != 0) {
				t.Fatalf("%d replica adds (%d catch-ups, %d resets), want >= %d, all by %s",
					adds, snaps, resets, rounds, map[bool]string{false: "catch-up", true: "reset"}[cold])
			}
		})
	}
}

// TestBatchScratchClearsStaleResults: after a 64-key MGet, a 1-key MGet
// must leave no result of the first past its end in the router's merged
// results: each stale value would stay reachable there. The nodes'
// reply scratch is proto's TestFlushClearsStaleReplies.
func TestBatchScratchClearsStaleResults(t *testing.T) {
	h, err := NewHarness(HarnessConfig{Nodes: 2, RingShards: 16, Cache: testCacheConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	cl := h.Client()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = loadgen.HotKey(i)
	}
	for _, batch := range [][]string{keys, keys[:1]} {
		if _, err := cl.MGet(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i, g := range cl.gets[len(cl.gets):cap(cl.gets)] {
		if g.Value != nil {
			t.Errorf("router: slot %d past the last batch still holds %q", i, g.Value)
		}
	}
}

// TestReadYourWriteAcrossReplicaChurn is the replication-safety test:
// writes fan to every replica, and a node re-entering a shard's
// replica set is reset cold so it refills through the shared backing
// store — a reader can never observe a value older than the last write
// routed through the cluster, no matter how the manager moved replicas
// in between.
func TestReadYourWriteAcrossReplicaChurn(t *testing.T) {
	store := backend.NewMap()
	cfg := testCacheConfig()
	cfg.Loader = store.Loader()
	mgr, err := NewManager(ManagerConfig{Window: 64, HotReads: 32, ColdReads: 8})
	if err != nil {
		t.Fatal(err)
	}
	log := new(collectLog)
	h, err := NewHarness(HarnessConfig{
		Nodes:      3,
		RingShards: 16,
		Cache:      cfg,
		Manager:    mgr,
		Log:        log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	cl := h.Client()

	const k = "churn-key"
	shard := h.Ring().KeyShard(k)
	write := func(val string) {
		store.Put(k, []byte(val))
		if _, err := cl.Put(k, []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	readMustSee := func(val string, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			g, err := cl.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Value, []byte(val)) {
				t.Fatalf("read %d of %q = %q (status %v), want %q (replicas %v)",
					i, k, g.Value, g.Status, val, h.Ring().Replicas(shard))
			}
		}
	}
	// Off-shard keys to cool the hot shard down without touching it.
	var coolKeys []string
	for i := 0; len(coolKeys) < 16; i++ {
		key := loadgen.ColdKey(i)
		if h.Ring().KeyShard(key) != shard {
			coolKeys = append(coolKeys, key)
		}
	}
	cool := func(windows int) {
		for i := 0; i < windows*64; i++ {
			if _, err := cl.Get(coolKeys[i%len(coolKeys)]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Heat the shard: the manager must replicate it.
	write("v1")
	readMustSee("v1", 200)
	if got := h.Ring().ReplicaCount(shard); got < 2 {
		t.Fatalf("hot shard not replicated: %d replicas", got)
	}
	// Writes reach every replica: rendezvous-spread reads all see v2.
	write("v2")
	readMustSee("v2", 100)

	// Cool down: replicas collapse back to the primary.
	cool(6)
	if got := h.Ring().ReplicaCount(shard); got != 1 {
		t.Fatalf("cold shard kept %d replicas", got)
	}
	// Write while unreplicated: the dropped nodes now hold stale v2.
	write("v3")
	// Re-heat: the re-added replica must come back cold and refill from
	// the store, not serve its stale copy.
	readMustSee("v3", 200)
	if got := h.Ring().ReplicaCount(shard); got < 2 {
		t.Fatalf("re-heated shard not replicated: %d replicas", got)
	}
	readMustSee("v3", 100)

	var adds, drops int
	for _, cmd := range log.cmds {
		if cmd.Shard != shard {
			continue
		}
		if cmd.Kind == AddReplica {
			adds++
		} else {
			drops++
		}
	}
	if adds < 2 || drops < 1 {
		t.Errorf("expected add/drop/re-add churn on shard %d, got %d adds %d drops (commands %v)",
			shard, adds, drops, log.cmds)
	}
}

// TestCatchupCutsBackendLoads is the catch-up payoff test: the same
// managed stream run with warm catch-up and with the cold-reset
// baseline. The manager's decision stream is identical (service costs
// are routing-side, independent of cache contents), so the only
// difference is how re-added replicas warm up — and the warm run must
// spend strictly fewer backend Loads while preserving the same merged
// read-your-write semantics the churn test pins.
func TestCatchupCutsBackendLoads(t *testing.T) {
	ops := testStream(t, 12000)
	run := func(noCatchup bool) (*Cluster, uint64, []Command) {
		mgr, err := NewManager(ManagerConfig{Window: 1024, HotReads: 128, ColdReads: 16})
		if err != nil {
			t.Fatal(err)
		}
		log := new(collectLog)
		h, err := NewHarness(HarnessConfig{
			Nodes:      3,
			RingShards: 16,
			Cache:      testCacheConfig(),
			Manager:    mgr,
			NoCatchup:  noCatchup,
			Log:        log,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Client().Replay(ops); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		var loads uint64
		for _, c := range h.Caches() {
			loads += c.Stats().Loads
		}
		return h, loads, log.cmds
	}
	hw, warmLoads, cw := run(false)
	hc, coldLoads, cc := run(true)

	snaps, resets := hw.Client().CatchupCounts()
	if snaps == 0 || resets != 0 {
		t.Fatalf("warm run: %d catch-ups, %d fallbacks — wiring broken", snaps, resets)
	}
	if s, r := hc.Client().CatchupCounts(); s != 0 || r == 0 {
		t.Fatalf("cold run: %d catch-ups, %d resets — NoCatchup ignored", s, r)
	}
	// Identical decision streams: the comparison is apples to apples.
	if len(cw) != len(cc) {
		t.Fatalf("decision streams diverged: %d vs %d commands", len(cw), len(cc))
	}
	for i := range cw {
		if cw[i] != cc[i] {
			t.Fatalf("command %d differs: %v vs %v", i, cw[i], cc[i])
		}
	}
	if warmLoads >= coldLoads {
		t.Errorf("catch-up did not cut backend loads: warm %d, cold-reset %d", warmLoads, coldLoads)
	}
	t.Logf("backend loads: catch-up %d, cold reset %d (saved %d)", warmLoads, coldLoads, coldLoads-warmLoads)
}

// servedNode serves c as NewHarness does, with proto.ServeConn over a
// net.Pipe, and returns the client end. The test's cleanup closes the
// connection, waits for the server loop and fails on its error.
func servedNode(t *testing.T, c *live.Cache) *proto.Client {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- proto.ServeConn(srvEnd, c) }()
	conn := proto.NewClient(cliEnd)
	t.Cleanup(func() {
		conn.Close()
		if err := <-served; err != nil {
			t.Errorf("node server: %v", err)
		}
	})
	return conn
}

// brokenConn is a node on which neither arm of the replica sync works:
// it cannot be snapshotted and cannot be reset.
type brokenConn struct{ NodeConn }

func (brokenConn) SnapRange(lo, hi int) ([]byte, error) {
	return nil, errors.New("snap refused")
}

func (brokenConn) ResetRange(lo, hi int) (int, error) {
	return 0, errors.New("reset refused")
}

// TestFailedResetStopsTheRun pins the one seam: a replica whose range
// can be neither restored nor reset may hold stale values, so the
// router must not let it serve. Replay returns an error naming the
// node, at the window boundary whose decision adds the replica, and
// the ring is left as it was.
func TestFailedResetStopsTheRun(t *testing.T) {
	mgr, err := NewManager(ManagerConfig{Window: 1024, HotReads: 128, ColdReads: 16})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := New(testCacheConfig().Sets, 16, []string{"node0", "node1", "node2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]NodeConn, len(ring.Nodes()))
	for i := range conns {
		c, err := live.New(testCacheConfig())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = brokenConn{servedNode(t, c)}
	}
	log := new(collectLog)
	cl, err := NewClient(ClientConfig{Ring: ring, Conns: conns, Manager: mgr, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Replay(testStream(t, 12000))
	if err == nil {
		t.Fatal("Replay succeeded although no added replica could be synced")
	}

	// The journal ends with the window that asked for the first add.
	ws := log.windows
	if len(ws) == 0 || len(ws)%ring.Shards() != 0 {
		t.Fatalf("journal holds %d records for %d shards", len(ws), ring.Shards())
	}
	for i := 0; i < len(ws); i += ring.Shards() {
		cmds := mgr.Decide(ws[i:i+ring.Shards()], len(conns))
		if last := i+ring.Shards() == len(ws); last != (len(cmds) > 0) {
			t.Fatalf("window %d decided %v; the run must stop at the first deciding window", ws[i].Window, cmds)
		}
		if len(cmds) > 0 {
			if cmds[0].Kind != AddReplica {
				t.Fatalf("first command %v is not an add", cmds[0])
			}
			n, _ := ring.AddReplica(cmds[0].Shard)
			ring.DropReplica(cmds[0].Shard)
			if want := fmt.Sprintf("node %d", n); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "reset refused") {
				t.Errorf("error %q does not name %q and the reset failure", err, want)
			}
		}
	}
	for s := 0; s < ring.Shards(); s++ {
		if ring.ReplicaCount(s) != 1 {
			t.Errorf("shard %d kept %d replicas after the failed add", s, ring.ReplicaCount(s))
		}
	}
	if cl.Applied() != 0 || len(log.cmds) != 0 {
		t.Errorf("%d commands counted as applied, %v logged", cl.Applied(), log.cmds)
	}
}

// hotShardKeys scans candidate key names until n of them land on one
// ring shard (the shard of candidate 0) — the hot-shard scenario:
// per-key rendezvous routing cannot spread a single key's reads, but a
// replicated shard spreads distinct hot keys across its replicas. Shard
// placement depends only on the geometry, never on the node set, so
// every leg sees the same hot shard.
func hotShardKeys(t *testing.T, sets, ringShards, n int) []string {
	t.Helper()
	ring, err := New(sets, ringShards, []string{"probe"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := ring.KeyShard(loadgen.HotKey(0))
	names := make([]string, 0, n)
	for i := 0; len(names) < n; i++ {
		if name := loadgen.HotKey(i); ring.KeyShard(name) == target {
			names = append(names, name)
		}
	}
	return names
}

// lateP99 is the worst per-window p99 service cost (in-window queue
// depth) over the run's second half of windows — after the control
// loop has had windows to act; the first windows are identical across
// legs by construction.
func lateP99(ws []probe.ShardWindow) int {
	last := 0
	for _, w := range ws {
		last = max(last, w.Window)
	}
	peak := 0
	for _, w := range ws {
		if 2*w.Window >= last {
			peak = max(peak, w.P99Cost)
		}
	}
	return peak
}

// TestManagedBeatsStaticPartitioning is the partition-vs-replicate
// experiment the cluster layer exists for, on a deliberately skewed
// stream: 120 000 hotspot ops whose 8 hot keys all land on one ring
// shard, at the serving geometry (1024 x 16 per node, 64 ring shards,
// window 4096).
//
//	single   one node absorbs everything
//	static   three nodes, ring only — the hot shard stays on one node
//	managed  three nodes plus the shard manager replicating hot shards
//
// The pinned metrics are deterministic models, not wall clock:
// makespan sums each window's busiest-node load (replicating the hot
// shard shrinks the busiest node's share), so modeled read throughput
// TotalReads/makespan is 0.900 / 0.955 / 1.723.
func TestManagedBeatsStaticPartitioning(t *testing.T) {
	const window = 4096
	cacheCfg := live.DefaultConfig()
	cacheCfg.Loader = loadgen.AbsentLoader(0)
	stream, err := loadgen.NewHotspot(loadgen.HotspotConfig{
		HotNames: hotShardKeys(t, cacheCfg.Sets, 64, 8), ColdKeys: 65536,
		HotFrac: 0.9, WriteFrac: 0.1, ZipfS: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := loadgen.Take(stream, 120_000)

	type outcome struct {
		reads, makespan uint64
		lateP99, cmds   int
	}
	run := func(nodes int, managed bool) outcome {
		var mgr *Manager
		if managed {
			m, err := NewManager(ManagerConfig{Window: window, HotReads: 1024, ColdReads: 64})
			if err != nil {
				t.Fatal(err)
			}
			mgr = m
		}
		log := new(collectLog)
		h, err := NewHarness(HarnessConfig{
			Nodes:      nodes,
			RingShards: 64,
			Cache:      cacheCfg,
			Manager:    mgr,
			Window:     window,
			Log:        log,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl := h.Client()
		if err := cl.Replay(ops); err != nil {
			t.Fatal(err)
		}
		if err := cl.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		return outcome{cl.TotalReads(), cl.Makespan(), lateP99(log.windows), len(log.cmds)}
	}
	single, static, managed := run(1, false), run(3, false), run(3, true)

	for _, leg := range []struct {
		name      string
		got, want outcome
	}{
		{"single", single, outcome{108005, 120000, 4095, 0}},
		{"static", static, outcome{108005, 113036, 3870, 0}},
		{"managed", managed, outcome{108005, 62668, 2079, 2}},
	} {
		if leg.got != leg.want {
			t.Errorf("%s: reads/makespan/late-p99/commands = %+v, want %+v", leg.name, leg.got, leg.want)
		}
	}
	// Reads are equal across legs, so model throughput orders as
	// makespan does, inverted.
	if managed.makespan > static.makespan {
		t.Errorf("managed model throughput below static: makespan %d vs %d", managed.makespan, static.makespan)
	}
	if managed.lateP99 > static.lateP99 {
		t.Errorf("managed late-p99 %d above static %d", managed.lateP99, static.lateP99)
	}
}

// teeLog feeds a collecting log and a streaming journal writer from one
// run.
type teeLog struct {
	collect *collectLog
	journal *probe.WindowWriter
}

func (l teeLog) Window(ws []probe.ShardWindow) error {
	if err := l.collect.Window(ws); err != nil {
		return err
	}
	return l.journal.Window(ws)
}

func (l teeLog) Command(cmd Command) error { return l.collect.Command(cmd) }

// TestWindowJournalRoundTrip is streamed-equals-collected: one managed
// run feeds a collecting log and a probe.WindowWriter at once. The
// journal decodes to exactly the collected records; window indices are
// dense; the trailing partial window Finish emits is there once however
// often the run is finished; and replaying the manager over the decoded
// journal reproduces the commands the router applied — the journal
// really is sufficient to reproduce the control loop.
func TestWindowJournalRoundTrip(t *testing.T) {
	const window, n = 1024, 8000
	ops := testStream(t, n)
	mgr, err := NewManager(ManagerConfig{Window: window, HotReads: 128, ColdReads: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	log := teeLog{new(collectLog), probe.NewWindowWriter(&buf, "cluster test")}
	h, err := NewHarness(HarnessConfig{
		Nodes:      3,
		RingShards: 16,
		Cache:      testCacheConfig(),
		Manager:    mgr,
		Log:        log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Client().Replay(ops); err != nil {
		t.Fatal(err)
	}
	// Finish, StatsJSON and Close each finish the run; the partial window
	// must come out of the first and only the first.
	if err := h.Client().Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.StatsJSON(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.journal.Close(); err != nil {
		t.Fatal(err)
	}

	_, windowOps, decoded, err := probe.ReadShardWindows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if windowOps != window {
		t.Errorf("journal header window_ops = %d, want %d", windowOps, window)
	}
	if !reflect.DeepEqual(decoded, log.collect.windows) {
		t.Fatalf("streamed journal (%d records) differs from the collected log (%d records)",
			len(decoded), len(log.collect.windows))
	}
	shards := h.Ring().Shards()
	wantWindows := n/window + 1 // seven whole windows and the 832-op tail
	if len(decoded) != wantWindows*shards {
		t.Fatalf("journal holds %d records, want %d windows x %d shards", len(decoded), wantWindows, shards)
	}
	var tail uint64
	for i, w := range decoded {
		if w.Window != i/shards || w.Shard != i%shards {
			t.Fatalf("record %d is window %d shard %d: indices not dense", i, w.Window, w.Shard)
		}
		if w.Window == wantWindows-1 {
			tail += w.Reads + w.Writes
		}
	}
	if tail != n%window {
		t.Errorf("trailing window holds %d ops, want the %d left over", tail, n%window)
	}

	// Replay the control loop from the journal: whole windows only, as
	// the router decides. Every decision was applicable on this run, so
	// the replayed stream is the applied stream.
	var replayed []Command
	for i := 0; i+shards <= (wantWindows-1)*shards; i += shards {
		replayed = append(replayed, mgr.Decide(decoded[i:i+shards], 3)...)
	}
	if len(replayed) == 0 {
		t.Fatal("run decided nothing — test stream too tame")
	}
	if !reflect.DeepEqual(replayed, log.collect.cmds) {
		t.Errorf("commands replayed from the journal %v differ from the applied ones %v", replayed, log.collect.cmds)
	}
}

// failingLog accepts failAt windows and refuses every later one.
type failingLog struct {
	failAt int
	seen   []int // window index of every Window call, refused ones too
}

var errLogFull = errors.New("run log full")

func (l *failingLog) Window(ws []probe.ShardWindow) error {
	l.seen = append(l.seen, ws[0].Window)
	if len(l.seen) > l.failAt {
		return errLogFull
	}
	return nil
}

func (l *failingLog) Command(Command) error { return nil }

// TestRunLogErrorAbortsTheRun: a run log that fails at window k stops
// the run like a flush error does — the error comes back from the very
// call that crosses the boundary, whichever entry point that is — and
// the window it refused is closed all the same: carrying on never hands
// any window to the log twice.
func TestRunLogErrorAbortsTheRun(t *testing.T) {
	const window, failAt = 256, 2
	keys := make([]string, 64)
	kvs := make([]proto.KV, 64)
	for i := range keys {
		keys[i] = loadgen.ColdKey(i)
		kvs[i] = proto.KV{Key: keys[i], Value: loadgen.Value(keys[i], 32)}
	}
	entry := map[string]func(cl *Client) error{
		"MGet": func(cl *Client) error { _, err := cl.MGet(keys); return err },
		"MPut": func(cl *Client) error { _, err := cl.MPut(kvs); return err },
		"Replay": func(cl *Client) error {
			ops := make([]loadgen.Op, len(keys))
			for i, k := range keys {
				ops[i] = loadgen.Op{Key: k}
			}
			return cl.Replay(ops)
		},
	}
	for name, call := range entry {
		log := &failingLog{failAt: failAt}
		h, err := NewHarness(HarnessConfig{
			Nodes: 2, RingShards: 16, Cache: testCacheConfig(), Window: window, Log: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl := h.Client()
		// 64 ops a call, 256 a window: calls 4 and 8 cross the accepted
		// boundaries, call 12 the refused one.
		for i := 1; i <= 12; i++ {
			err := call(cl)
			if crossing := i == 12; crossing != errors.Is(err, errLogFull) {
				t.Fatalf("%s call %d: err = %v (crosses the failing boundary: %v)", name, i, err, crossing)
			}
		}
		// The run carries on regardless; the log keeps refusing, but each
		// window reaches it exactly once.
		for i := 13; i <= 16; i++ {
			call(cl)
		}
		cl.Finish()
		if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(log.seen, want) {
			t.Errorf("%s: log saw windows %v, want each once: %v", name, log.seen, want)
		}
		h.Close()
	}
}
