// Command rwpserve runs the live RWP key-value cache (internal/live)
// as a network service, and doubles as the deterministic harness
// around it:
//
//	rwpserve                         serve the binary protocol
//	                                 (internal/live/proto) on -tcp and
//	                                 the operator's GET /stats on -addr
//	rwpserve -selftest 20000         run a seeded loadgen burst through
//	                                 -transport, print /stats JSON, exit
//	rwpserve -record reqs.jsonl ...  additionally journal every request
//	                                 (schema rwp-reqlog-v1; replay with
//	                                 cmd/rwpreplay)
//	rwpserve -snapshot s.snap ...    write a state snapshot (schema
//	                                 rwp-snap-v5) at graceful shutdown /
//	                                 selftest exit; -snap-every N adds
//	                                 op-count-clocked checkpoints
//	rwpserve -restore s.snap ...     warm-start from a snapshot; /stats
//	                                 and all future behavior are
//	                                 byte-identical to a never-restarted
//	                                 run (bad snapshots log + start cold)
//
// The binary listener is the one data wire: the frame protocol
// documented in internal/live/proto, pipelined
// GET/PUT/MGET/MPUT/STATS/PING. HTTP is the operator's read-only view:
// GET /stats returns the JSON aggregate (shard-count invariant), the
// same bytes a STATS frame carries.
//
// All wall-clock concerns (HTTP, shutdown signals) live here in cmd/;
// internal/live itself is clocked purely by operation counts, so the
// -selftest output is bit-identical across runs, across -shards, and
// across -transport.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"rwp/internal/live"
	"rwp/internal/live/drive"
	"rwp/internal/live/loadgen"
	"rwp/internal/probe"
	"rwp/internal/snap"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body. ctx cancellation triggers graceful
// server shutdown (main wires it to SIGINT/SIGTERM).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rwpserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8344", "operator HTTP listen address, GET /stats only (host:port; :0 picks a free port)")
	tcpAddr := fs.String("tcp", "127.0.0.1:8345", "binary-protocol listen address, the data wire (host:port; :0 picks a free port)")
	policyName := fs.String("policy", "rwp", "replacement policy: lru or rwp")
	sets := fs.Int("sets", 1024, "total sets (power of two)")
	ways := fs.Int("ways", 16, "ways per set")
	shards := fs.Int("shards", 8, "lock shards (must divide sets into whole 8-set policy groups; behavior-invariant)")
	interval := fs.Uint64("interval", 0, "RWP repartition interval: ops per set between retargets, counted over each 8-set policy group (0: default)")
	valueSize := fs.Int("value-size", 0, "synthetic value size in bytes (0: default)")
	noLoader := fs.Bool("no-loader", false, "disable the synthetic backing store (Get misses answer miss)")
	coalesce := fs.Bool("coalesce", false, "singleflight fill coalescing: concurrent misses on one key share one Loader call")
	negOps := fs.Uint64("neg-ops", 0, "negatively cache Loader misses for N per-set ops (0: off)")
	leaseOps := fs.Uint64("lease-ops", 0, "depose a coalesced fill stuck for N per-set ops (0: never; needs -coalesce)")
	recordPath := fs.String("record", "", "journal every request to this file (schema rwp-reqlog-v1)")
	snapPath := fs.String("snapshot", "", "write a state snapshot (schema rwp-snap-v5) here at graceful shutdown / selftest exit")
	snapEvery := fs.Uint64("snap-every", 0, "additionally checkpoint -snapshot every N data ops (serve mode; 0: shutdown only)")
	restorePath := fs.String("restore", "", "warm-start from this snapshot; a bad snapshot logs and starts cold")
	selftest := fs.Int("selftest", 0, "run N loadgen ops through -transport, print /stats JSON, exit")
	selftestSkip := fs.Int("selftest-skip", 0, "skip the first K of the -selftest ops (resume a stream after -restore)")
	profile := fs.String("profile", "mcf", "workload profile for -selftest")
	seed := fs.Uint64("seed", 0, "loadgen seed offset for -selftest")
	transport := fs.String("transport", "direct", "transport for -selftest: direct or tcp")
	batch := fs.Int("batch", 64, "max ops per binary MGET/MPUT frame (tcp transport)")
	pipeline := fs.Int("pipeline", 8, "frames per pipelined flush (tcp transport)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rwpserve: unexpected arguments %q\n", fs.Args())
		return 2
	}
	tr, err := drive.ParseTransport(*transport)
	if err != nil {
		fmt.Fprintf(stderr, "rwpserve: %v\n", err)
		return 2
	}

	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = *sets, *ways, *shards
	cfg.Policy = *policyName
	if *interval > 0 {
		cfg.RWP.Interval = *interval
	}
	if !*noLoader {
		// The backing store has a hole at loadgen's absent keyspace, so
		// the adversarial scan profile sees true backend misses; for
		// every other key this serves the same bytes Loader always has.
		cfg.Loader = loadgen.AbsentLoader(*valueSize)
	}
	cfg.Coalesce = *coalesce
	cfg.NegOps = *negOps
	cfg.LeaseOps = *leaseOps

	if *snapEvery > 0 && (*snapPath == "" || *selftest > 0) {
		fmt.Fprintln(stderr, "rwpserve: -snap-every needs serve mode with -snapshot")
		return 2
	}
	if *selftestSkip < 0 || *selftestSkip > *selftest {
		// skip == selftest is allowed on purpose: it restores, replays
		// zero ops, prints stats, and re-snapshots — the fixed-point
		// probe the restart smoke in scripts/check.sh runs.
		fmt.Fprintln(stderr, "rwpserve: -selftest-skip must be in [0, -selftest]")
		return 2
	}

	var closeLog func() error
	if *recordPath != "" {
		// The description deliberately omits the shard count (a lock
		// layout detail) so journals are byte-identical across -shards.
		desc := fmt.Sprintf("rwpserve policy=%s sets=%d ways=%d", cfg.Policy, cfg.Sets, cfg.Ways)
		log, cl, err := openReqLog(*recordPath, desc)
		if err != nil {
			fmt.Fprintf(stderr, "rwpserve: %v\n", err)
			return 2
		}
		cfg.ReqLog = log
		closeLog = cl
	}

	c, err := live.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "rwpserve: %v\n", err)
		return 2
	}

	if *restorePath != "" {
		// A bad snapshot — unreadable, corrupt, wrong geometry — must
		// never take the server down or leave partial state: log why
		// and serve cold, exactly as if no snapshot existed.
		if rerr := restoreCache(c, *restorePath); rerr != nil {
			fmt.Fprintf(stderr, "rwpserve: restore %s: %v; starting cold\n", *restorePath, rerr)
		}
	}

	if *selftest > 0 {
		err := runSelftest(stdout, c, tr, *profile, *seed, *valueSize, *selftest, *selftestSkip, *batch, *pipeline)
		if err == nil && *snapPath != "" {
			err = snap.WriteFile(*snapPath, c.Snapshot())
		}
		if err == nil && closeLog != nil {
			err = closeLog()
		}
		if err != nil {
			fmt.Fprintf(stderr, "rwpserve: %v\n", err)
			return 1
		}
		return 0
	}

	err = serve(ctx, *addr, *tcpAddr, c, *snapPath, *snapEvery, stdout, stderr)
	if closeLog != nil {
		if cerr := closeLog(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "rwpserve: %v\n", err)
		return 1
	}
	return 0
}

// openReqLog creates the request journal at path and returns the
// writer plus a close func that flushes, closes the file, and surfaces
// any sticky write error.
func openReqLog(path, desc string) (*probe.ReqLogWriter, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w, err := probe.NewReqLogWriter(f, desc)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, func() error {
		werr := w.Close()
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}, nil
}

// runSelftest drives n single-goroutine loadgen ops against c through
// the chosen transport and prints the stats payload fetched through
// that same transport. Deterministic: the output is bit-identical
// across repeated runs, across shard counts, and across transports —
// the differential tests compare these bytes directly.
//
// skip discards the first skip generator ops without issuing them, so
// a -restore'd server resumes the stream exactly where the snapshotted
// run left off: restore at op K + replay ops K..n must print the same
// bytes as a never-restarted n-op run.
func runSelftest(w io.Writer, c *live.Cache, transport, profile string, seed uint64, valSize, n, skip, batch, depth int) error {
	g, err := loadgen.NewStream(profile, seed, valSize)
	if err != nil {
		return err
	}
	for i := 0; i < skip; i++ {
		g.Next()
	}
	tgt, err := drive.New(transport, c, batch, depth)
	if err != nil {
		return err
	}
	defer tgt.Close()
	if err := tgt.Replay(loadgen.Take(g, n-skip)); err != nil {
		return err
	}
	data, err := tgt.StatsJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
