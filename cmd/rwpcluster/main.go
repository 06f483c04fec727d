// Command rwpcluster runs the clustered form of the live RWP cache
// (internal/cluster): a consistent-hash ring over N nodes, a routing
// client fanning pipelined binary-protocol batches, and optionally the
// deterministic shard-manager replication loop.
//
//	rwpcluster -selftest 20000                 3 in-process nodes, run a
//	                                           seeded loadgen burst, print
//	                                           the merged /stats JSON, exit
//	rwpcluster -selftest 20000 -mode pipe      same, through real pipelined
//	                                           binary connections (net.Pipe)
//	rwpcluster -selftest 20000 -manager        replication control loop on
//	rwpcluster -selftest 20000 -connect a,b    route against running
//	                                           rwpserve -tcp processes
//	                                           (-manager works here too:
//	                                           replica catch-up runs over
//	                                           the wire via SNAP/RESTORE)
//
// With the manager off the merged document is byte-identical to
// `rwpserve -selftest` at the same geometry, profile and seed — the
// cluster smoke in scripts/check.sh compares the two with cmp. All
// wall-clock concerns live here in cmd/; internal/cluster is clocked
// purely by operation counts.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"rwp/internal/cluster"
	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
	"rwp/internal/probe"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rwpcluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 3, "in-process node count")
	ringShards := fs.Int("ring-shards", 64, "ring shards (must divide -sets)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per node (0: default)")
	policyName := fs.String("policy", "rwp", "replacement policy: lru or rwp")
	sets := fs.Int("sets", 1024, "total sets per node (power of two)")
	ways := fs.Int("ways", 16, "ways per set")
	shards := fs.Int("shards", 8, "lock shards per node (must divide sets)")
	interval := fs.Uint64("interval", 0, "RWP repartition interval in per-set ops (0: default)")
	valueSize := fs.Int("value-size", 0, "synthetic value size in bytes (0: default)")
	noLoader := fs.Bool("no-loader", false, "disable the synthetic backing store")
	mode := fs.String("mode", "direct", "node transport: direct or pipe")
	pipeline := fs.Int("pipeline", 0, "router flush depth in ops (0: default)")
	selftest := fs.Int("selftest", 0, "run N loadgen ops through the cluster, print merged stats JSON, exit")
	profile := fs.String("profile", "mcf", "workload profile for -selftest")
	seed := fs.Uint64("seed", 0, "loadgen seed offset")
	manager := fs.Bool("manager", false, "enable the shard-manager replication loop")
	window := fs.Int("window", 4096, "manager window in routed ops")
	hot := fs.Uint64("hot", 1024, "reads per window marking a shard hot")
	cold := fs.Uint64("cold", 64, "reads per window marking a shard cold")
	hotP99 := fs.Int("hot-p99", 0, "p99 service cost additionally required to replicate (0: off)")
	maxReplicas := fs.Int("max-replicas", 0, "replica cap per shard (0: node count)")
	windowsOut := fs.String("windows-out", "", "write the shard-window journal to this file")
	journalDir := fs.String("journal-dir", "", "write per-node probe journals under this directory")
	connect := fs.String("connect", "", "comma-separated rwpserve -tcp addresses (real sockets; -manager runs catch-up over the wire)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rwpcluster: unexpected arguments %q\n", fs.Args())
		return 2
	}

	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = *sets, *ways, *shards
	cfg.Policy = *policyName
	if *interval > 0 {
		cfg.RWP.Interval = *interval
	}
	if !*noLoader {
		// Same backing store as rwpserve, hole at the absent keyspace
		// included, so journals recorded there replay bit-identically.
		cfg.Loader = loadgen.AbsentLoader(*valueSize)
	}

	var mgr *cluster.Manager
	if *manager {
		m, err := cluster.NewManager(cluster.ManagerConfig{
			Window: *window, HotReads: *hot, ColdReads: *cold,
			HotP99: *hotP99, MaxReplicas: *maxReplicas,
		})
		if err != nil {
			fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
			return 2
		}
		mgr = m
	}

	if *selftest <= 0 {
		fmt.Fprintln(stderr, "rwpcluster: nothing to do: pass -selftest N")
		return 2
	}
	g, err := loadgen.New(*profile, *seed, *valueSize)
	if err != nil {
		fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
		return 2
	}
	ops := g.Batch(*selftest)

	if *connect != "" {
		if err := runConnected(stdout, strings.Split(*connect, ","), cfg.Sets, *ringShards, *vnodes, *pipeline, mgr, ops); err != nil {
			fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
			return 1
		}
		return 0
	}

	ids := make([]string, *nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
	}
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		NodeIDs:    ids,
		RingShards: *ringShards,
		Vnodes:     *vnodes,
		Cache:      cfg,
		Mode:       cluster.Mode(*mode),
		Manager:    mgr,
		Window:     selftestWindow(mgr, *windowsOut, *window),
		Pipeline:   *pipeline,
	})
	if err != nil {
		fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
		return 2
	}
	if err := h.Client().Replay(ops); err != nil {
		fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
		return 1
	}
	if err := h.Client().Finish(); err != nil {
		fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
		return 1
	}
	doc, err := h.MergedStatsJSON()
	if err != nil {
		fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
		return 1
	}
	if _, err := stdout.Write(doc); err != nil {
		fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
		return 1
	}
	if *windowsOut != "" {
		desc := fmt.Sprintf("profile=%s seed=%d nodes=%d ring-shards=%d", *profile, *seed, *nodes, *ringShards)
		if err := writeWindows(*windowsOut, desc, h.Client()); err != nil {
			fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
			return 1
		}
	}
	if *journalDir != "" {
		if err := h.WriteNodeJournals(*journalDir); err != nil {
			fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
			return 1
		}
	}
	if err := h.Close(); err != nil {
		fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
		return 1
	}
	return 0
}

// selftestWindow picks the manager-less sampling window: when a
// windows journal was requested without a manager, sample at the
// manager cadence anyway so the journal is non-trivial.
func selftestWindow(mgr *cluster.Manager, windowsOut string, window int) int {
	if mgr != nil || windowsOut == "" {
		return 0
	}
	return window
}

// writeWindows serializes the router's shard-window journal.
func writeWindows(path, desc string, cl *cluster.Client) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := probe.WriteShardWindows(f, desc, windowOpsOf(cl), cl.Windows())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// windowOpsOf recovers the journal header's window width from the
// journal itself (records are emitted per closed window; the header
// value is informational).
func windowOpsOf(cl *cluster.Client) int {
	ws := cl.Windows()
	if len(ws) == 0 {
		return 0
	}
	var perWindow uint64
	for _, w := range ws {
		if w.Window == ws[0].Window {
			perWindow += w.Reads + w.Writes
		}
	}
	return int(perWindow)
}

// runConnected routes the op stream against running rwpserve -tcp
// processes: one pipelined binary connection per address, ring shards
// spread across them. With -manager the replication control loop runs
// too: replica adds are satisfied over the wire, warm when possible
// (SNAP from the shard primary, RESTORE onto the new replica) and by a
// remote RESET otherwise. It prints each node's stats document in
// address order, plus a catch-up summary when managed.
func runConnected(w io.Writer, addrs []string, sets, ringShards, vnodes, pipeline int, mgr *cluster.Manager, ops []loadgen.Op) error {
	ring, err := cluster.New(sets, ringShards, addrs, vnodes)
	if err != nil {
		return err
	}
	conns := make([]cluster.NodeConn, len(addrs))
	resetters := make([]cluster.Resetter, len(addrs))
	snapshotters := make([]cluster.Snapshotter, len(addrs))
	restorers := make([]cluster.Restorer, len(addrs))
	for i, addr := range addrs {
		nc, err := net.Dial("tcp", strings.TrimSpace(addr))
		if err != nil {
			return fmt.Errorf("node %s: %w", addr, err)
		}
		cli := proto.NewClient(nc)
		conns[i] = cli
		// A RESET wire failure poisons the connection, so the swallowed
		// error here is not lost — the next data op surfaces it sticky.
		resetters[i] = func(lo, hi int) int { n, _ := cli.ResetRange(lo, hi); return n }
		snapshotters[i] = cli.SnapRange
		restorers[i] = cli.Restore
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	cl, err := cluster.NewClient(cluster.ClientConfig{
		Ring: ring, Conns: conns,
		Resetters: resetters, Snapshotters: snapshotters, Restorers: restorers,
		Manager: mgr, Pipeline: pipeline,
	})
	if err != nil {
		return err
	}
	if err := cl.Replay(ops); err != nil {
		return err
	}
	if err := cl.Finish(); err != nil {
		return err
	}
	for i, conn := range conns {
		data, err := conn.Stats()
		if err != nil {
			return fmt.Errorf("node %s: %w", addrs[i], err)
		}
		fmt.Fprintf(w, "== node %s ==\n", addrs[i])
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	if mgr != nil {
		snaps, resets := cl.CatchupCounts()
		fmt.Fprintf(w, "== catchup ==\ncommands=%d snaps=%d resets=%d\n",
			len(cl.AppliedCommands()), snaps, resets)
	}
	return nil
}
