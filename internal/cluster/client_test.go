package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/backend"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
	"rwp/internal/probe"
)

// probeWrite/probeRead adapt the window codec for the round-trip test.
func probeWrite(w io.Writer, ws []probe.ShardWindow) error {
	return probe.WriteShardWindows(w, "cluster test", 1024, ws)
}

func probeRead(r io.Reader) ([]probe.ShardWindow, error) {
	_, _, ws, err := probe.ReadShardWindows(r)
	return ws, err
}

// testCacheConfig is the shared per-node geometry: small enough to
// force evictions under the test streams, RWP policy so the merged
// document exercises every section.
func testCacheConfig() live.Config {
	return live.Config{
		Sets: 256, Ways: 4, Shards: 4,
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

// TestPipeEqualsDirect runs the same managed stream through the
// synchronous direct transport and through real pipelined binary
// connections, demanding identical merged documents, window journals,
// and applied replica commands — the wire adds framing, never
// behavior.
func TestPipeEqualsDirect(t *testing.T) {
	ops := testStream(t, 12000)
	run := func(mode Mode) (*Cluster, []byte) {
		mgr, err := NewManager(ManagerConfig{Window: 1024, HotReads: 128, ColdReads: 16})
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHarness(HarnessConfig{
			Nodes:      3,
			RingShards: 16,
			Cache:      testCacheConfig(),
			Mode:       mode,
			Manager:    mgr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Client().Replay(ops); err != nil {
			t.Fatal(err)
		}
		if err := h.Client().Finish(); err != nil {
			t.Fatal(err)
		}
		doc, err := h.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return h, doc
	}
	hd, docD := run(Direct)
	hp, docP := run(Pipe)
	if !bytes.Equal(docD, docP) {
		t.Errorf("direct and pipe merged stats differ:\ndirect: %s\npipe: %s", docD, docP)
	}
	wd, wp := hd.Client().Windows(), hp.Client().Windows()
	if len(wd) != len(wp) {
		t.Fatalf("window journals differ in length: %d vs %d", len(wd), len(wp))
	}
	for i := range wd {
		if wd[i] != wp[i] {
			t.Fatalf("window record %d differs: %+v vs %+v", i, wd[i], wp[i])
		}
	}
	cd, cp := hd.Client().AppliedCommands(), hp.Client().AppliedCommands()
	if len(cd) != len(cp) {
		t.Fatalf("applied commands differ in length: %d vs %d", len(cd), len(cp))
	}
	for i := range cd {
		if cd[i] != cp[i] {
			t.Fatalf("command %d differs: %v vs %v", i, cd[i], cp[i])
		}
	}
	if len(cd) == 0 {
		t.Error("managed run applied no replica commands — test stream too tame")
	}
	sd, rd := hd.Client().CatchupCounts()
	sp, rp := hp.Client().CatchupCounts()
	if sd != sp || rd != rp {
		t.Errorf("catch-up counts differ: direct %d/%d, pipe %d/%d", sd, rd, sp, rp)
	}
	if sd == 0 {
		t.Error("managed run performed no warm catch-ups — replica adds took the cold fallback")
	}
	if err := hd.Close(); err != nil {
		t.Errorf("direct Close: %v", err)
	}
	if err := hp.Close(); err != nil {
		t.Errorf("pipe Close: %v", err)
	}
}

// TestManagedRunBitIdentical pins whole-run determinism with the
// control loop active: two identical managed runs produce identical
// merged documents, journals, and decision streams.
func TestManagedRunBitIdentical(t *testing.T) {
	ops := testStream(t, 12000)
	doOne := func() ([]byte, []Command) {
		mgr, err := NewManager(ManagerConfig{Window: 1024, HotReads: 128, ColdReads: 16})
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHarness(HarnessConfig{
			Nodes:      3,
			RingShards: 16,
			Cache:      testCacheConfig(),
			Manager:    mgr,
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
		doc, err := h.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return doc, h.Client().AppliedCommands()
	}
	docA, cmdA := doOne()
	docB, cmdB := doOne()
	if !bytes.Equal(docA, docB) {
		t.Error("two identical managed runs produced different merged stats")
	}
	if len(cmdA) != len(cmdB) {
		t.Fatalf("command streams differ in length: %d vs %d", len(cmdA), len(cmdB))
	}
	for i := range cmdA {
		if cmdA[i] != cmdB[i] {
			t.Fatalf("command %d differs: %v vs %v", i, cmdA[i], cmdB[i])
		}
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
		Mode:       Pipe,
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
	h, err := NewHarness(HarnessConfig{
		Nodes:      3,
		RingShards: 16,
		Cache:      cfg,
		Manager:    mgr,
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
	for _, cmd := range cl.AppliedCommands() {
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
			shard, adds, drops, cl.AppliedCommands())
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
	run := func(noCatchup bool) (*Cluster, uint64) {
		mgr, err := NewManager(ManagerConfig{Window: 1024, HotReads: 128, ColdReads: 16})
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHarness(HarnessConfig{
			Nodes:      3,
			RingShards: 16,
			Cache:      testCacheConfig(),
			Manager:    mgr,
			NoCatchup:  noCatchup,
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
		return h, loads
	}
	hw, warmLoads := run(false)
	hc, coldLoads := run(true)

	snaps, resets := hw.Client().CatchupCounts()
	if snaps == 0 || resets != 0 {
		t.Fatalf("warm run: %d catch-ups, %d fallbacks — wiring broken", snaps, resets)
	}
	if s, r := hc.Client().CatchupCounts(); s != 0 || r == 0 {
		t.Fatalf("cold run: %d catch-ups, %d resets — NoCatchup ignored", s, r)
	}
	// Identical decision streams: the comparison is apples to apples.
	cw, cc := hw.Client().AppliedCommands(), hc.Client().AppliedCommands()
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
		conns[i] = brokenConn{&directConn{cache: c}}
	}
	cl, err := NewClient(ClientConfig{Ring: ring, Conns: conns, Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Replay(testStream(t, 12000))
	if err == nil {
		t.Fatal("Replay succeeded although no added replica could be synced")
	}

	// The journal ends with the window that asked for the first add.
	ws := cl.Windows()
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
	if len(cl.AppliedCommands()) != 0 {
		t.Errorf("commands %v recorded as applied", cl.AppliedCommands())
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
		h, err := NewHarness(HarnessConfig{
			Nodes:      nodes,
			RingShards: 64,
			Cache:      cacheCfg,
			Manager:    mgr,
			Window:     window,
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
		return outcome{cl.TotalReads(), cl.Makespan(), lateP99(cl.Windows()), len(cl.AppliedCommands())}
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

// TestWindowJournalRoundTrip writes a run's window log through the
// probe codec and replays the manager over it, matching the live
// decision stream — the journal really is sufficient to reproduce the
// control loop.
func TestWindowJournalRoundTrip(t *testing.T) {
	ops := testStream(t, 8000)
	mgr, err := NewManager(ManagerConfig{Window: 1024, HotReads: 128, ColdReads: 16})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(HarnessConfig{
		Nodes:      3,
		RingShards: 16,
		Cache:      testCacheConfig(),
		Manager:    mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Client().Replay(ops); err != nil {
		t.Fatal(err)
	}
	if err := h.Client().Finish(); err != nil {
		t.Fatal(err)
	}
	ws := h.Client().Windows()
	if len(ws) == 0 {
		t.Fatal("no windows journaled")
	}
	var buf bytes.Buffer
	if err := probeWrite(&buf, ws); err != nil {
		t.Fatal(err)
	}
	decoded, err := probeRead(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(ws) {
		t.Fatalf("decoded %d windows, journaled %d", len(decoded), len(ws))
	}
	for i := range ws {
		if decoded[i] != ws[i] {
			t.Fatalf("window %d: decoded %+v, journaled %+v", i, decoded[i], ws[i])
		}
	}
}
