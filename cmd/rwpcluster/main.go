// Command rwpcluster runs the clustered form of the live RWP cache
// (internal/cluster): a consistent-hash ring over N nodes, a routing
// client fanning pipelined binary-protocol batches, and optionally the
// deterministic shard-manager replication loop.
//
//	rwpcluster -selftest 20000                 3 in-process nodes (each a
//	                                           proto.ServeConn over a
//	                                           net.Pipe), run a seeded
//	                                           loadgen burst, print the
//	                                           merged /stats JSON, exit
//	rwpcluster -selftest 20000 -manager        replication control loop on
//	rwpcluster -in reqs.jsonl                  replay an rwpserve -record
//	                                           journal instead: the merged
//	                                           document is the recorded
//	                                           run's bytes
//	rwpcluster -selftest 20000 -connect a,b    route against running
//	                                           rwpserve -tcp processes and
//	                                           print each node's stats
//	                                           (-manager works here too:
//	                                           replica catch-up runs over
//	                                           the wire via SNAP/RESTORE)
//
// Both legs are one run: build a router over the nodes (in-process
// caches or dialed connections, the same cluster.NodeConn either way),
// replay, finish, print; -windows-out and -in work on both. -nodes is
// about the in-process caches and is refused with -connect.
// The cache geometry and the op source (-selftest -profile -seed -in)
// are the flag group rwpserve registers too (drive.Flags), so -profile
// takes everything rwpserve's does, adv:* included.
//
// With the manager off the merged document is byte-identical to
// `rwpserve -selftest` (or `rwpserve -in`) at the same geometry and
// source — TestSelftestMatchesSingleNode and TestReplayEquivalence
// compare them byte for byte. With the manager on it is the primary
// view: each set counted once, at its shard's primary. Replica reads
// and replicated writes are in the -windows-out journal (reads,
// replicas × writes) and in each node's own document. All wall-clock
// concerns live here in cmd/; internal/cluster is clocked purely by
// operation counts.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"rwp/internal/cluster"
	"rwp/internal/live/drive"
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
	resolve := drive.Flags(fs)
	nodes := fs.Int("nodes", 3, "in-process node count")
	ringShards := fs.Int("ring-shards", 64, "ring shards (must divide -sets into ranges of whole 8-set policy groups)")
	pipeline := fs.Int("pipeline", 0, "router flush depth in ops (0: default)")
	manager := fs.Bool("manager", false, "enable the shard-manager replication loop")
	window := fs.Int("window", 4096, "window width in routed ops: load sampling, and the manager's decision cadence")
	hot := fs.Uint64("hot", 1024, "reads per window marking a shard hot")
	cold := fs.Uint64("cold", 64, "reads per window marking a shard cold")
	windowsOut := fs.String("windows-out", "", "write the shard-window journal to this file")
	connect := fs.String("connect", "", "comma-separated rwpserve -tcp addresses (real sockets; -manager runs catch-up over the wire)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "rwpcluster: %v\n", err)
		return code
	}
	if fs.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	var addrs []string
	if *connect != "" {
		nodesSet := false
		fs.Visit(func(f *flag.Flag) { nodesSet = nodesSet || f.Name == "nodes" })
		if nodesSet {
			return fail(2, fmt.Errorf("-nodes needs in-process nodes (drop -connect)"))
		}
		// One trimmed list names the ring's nodes, the dialed addresses
		// and the output headers alike.
		for _, a := range strings.Split(*connect, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return fail(2, fmt.Errorf("-connect %q has an empty address", *connect))
			}
			addrs = append(addrs, a)
		}
	}
	var mgr *cluster.Manager
	if *manager {
		m, err := cluster.NewManager(cluster.ManagerConfig{Window: *window, HotReads: *hot, ColdReads: *cold})
		if err != nil {
			return fail(2, err)
		}
		mgr = m
	}

	r, code, err := resolve()
	if err != nil {
		return fail(code, err)
	}
	if !r.Driven {
		return fail(2, fmt.Errorf("nothing to do: pass -selftest N or -in PATH"))
	}

	// The router streams its run log: with -windows-out every window goes
	// into the journal as it closes, and nothing of it stays in memory.
	// The file is bound once the router is built (so a usage error leaves
	// no file behind) and before the first op is routed.
	var (
		journal *windowLog
		runLog  cluster.RunLog
	)
	if *windowsOut != "" {
		journal = new(windowLog)
		runLog = journal
	}

	// Build the router over one leg's nodes. stats renders the leg's
	// output once the run is finished; h is nil on the -connect leg.
	var (
		h     *cluster.Cluster
		cl    *cluster.Client
		stats func() ([]byte, error)
	)
	if addrs != nil {
		ring, err := cluster.New(r.Config.Sets, *ringShards, addrs, 0)
		if err != nil {
			return fail(2, err)
		}
		conns, err := dial(addrs)
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		if err != nil {
			return fail(1, err)
		}
		cl, err = cluster.NewClient(cluster.ClientConfig{
			Ring: ring, Conns: conns, Manager: mgr, Window: *window, Log: runLog, Pipeline: *pipeline,
		})
		if err != nil {
			return fail(2, err)
		}
		stats = func() ([]byte, error) { return nodeStats(addrs, conns, cl, mgr != nil) }
	} else {
		h, err = cluster.NewHarness(cluster.HarnessConfig{
			Nodes:      *nodes,
			RingShards: *ringShards,
			Cache:      r.Config,
			Manager:    mgr,
			Window:     *window,
			Log:        runLog,
			Pipeline:   *pipeline,
		})
		if err != nil {
			return fail(2, err)
		}
		cl, stats = h.Client(), h.StatsJSON
	}

	if journal != nil {
		f, err := os.Create(*windowsOut)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close() // error paths; the success path checks Close below
		desc := fmt.Sprintf("%s nodes=%d ring-shards=%d", r.Source, len(cl.Ring().Nodes()), *ringShards)
		journal.WindowWriter = probe.NewWindowWriter(f, desc)
		journal.file = f
	}
	if err := cl.Replay(r.Ops); err != nil {
		return fail(1, err)
	}
	if err := cl.Finish(); err != nil {
		return fail(1, err)
	}
	if journal != nil {
		if err := journal.close(); err != nil {
			return fail(1, err)
		}
	}
	doc, err := stats()
	if err != nil {
		return fail(1, err)
	}
	if _, err := stdout.Write(doc); err != nil {
		return fail(1, err)
	}
	if h != nil {
		if err := h.Close(); err != nil {
			return fail(1, err)
		}
	}
	return 0
}

// windowLog is the router's run log under -windows-out: each closed
// window goes straight into the journal file. Applied commands are not
// journaled — Manager.Decide replays them from the windows.
type windowLog struct {
	*probe.WindowWriter
	file *os.File
}

func (*windowLog) Command(cluster.Command) error { return nil }

// close completes the journal and closes its file.
func (l *windowLog) close() error {
	err := l.WindowWriter.Close()
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// dial opens one pipelined binary connection per rwpserve -tcp
// address. On error it returns the connections made so far, for the
// caller to close.
func dial(addrs []string) ([]cluster.NodeConn, error) {
	conns := make([]cluster.NodeConn, 0, len(addrs))
	for _, addr := range addrs {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return conns, fmt.Errorf("node %s: %w", addr, err)
		}
		conns = append(conns, proto.NewClient(nc))
	}
	return conns, nil
}

// nodeStats is the -connect leg's output: each node's own stats
// document in address order (the caches live in other processes, so
// there is no merged view), plus a catch-up summary when managed —
// replica adds are satisfied over the wire, warm when possible (SNAP
// from the shard primary, RESTORE onto the new replica) and by a
// remote RESET otherwise.
func nodeStats(addrs []string, conns []cluster.NodeConn, cl *cluster.Client, managed bool) ([]byte, error) {
	var out bytes.Buffer
	for i, conn := range conns {
		data, err := conn.Stats()
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", addrs[i], err)
		}
		fmt.Fprintf(&out, "== node %s ==\n", addrs[i])
		out.Write(data)
	}
	if managed {
		snaps, resets := cl.CatchupCounts()
		fmt.Fprintf(&out, "== catchup ==\ncommands=%d snaps=%d resets=%d\n",
			cl.Applied(), snaps, resets)
	}
	return out.Bytes(), nil
}
