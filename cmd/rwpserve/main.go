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
//	                                 (schema rwp-reqlog-v1)
//	rwpserve -in reqs.jsonl ...      replay a journal instead of the
//	                                 loadgen burst: the same bytes as the
//	                                 recorded run, over any -transport
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
// GET /stats returns the JSON aggregate, the same bytes a STATS frame
// carries.
//
// The cache geometry and the op source (-selftest -profile -seed -in)
// are the flag group rwpcluster registers too (drive.Flags). All
// wall-clock concerns (HTTP, shutdown signals) live here in cmd/;
// internal/live itself is clocked purely by operation counts, so a
// driven run's output is bit-identical across runs and across
// -transport.
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
	resolve := drive.Flags(fs)
	addr := fs.String("addr", "127.0.0.1:8344", "operator HTTP listen address, GET /stats only (host:port; :0 picks a free port)")
	tcpAddr := fs.String("tcp", "127.0.0.1:8345", "binary-protocol listen address, the data wire (host:port; :0 picks a free port)")
	coalesce := fs.Bool("coalesce", false, "singleflight fill coalescing: concurrent misses on one key share one Loader call")
	negOps := fs.Uint64("neg-ops", 0, "negatively cache Loader misses for N per-set ops (0: off)")
	leaseOps := fs.Uint64("lease-ops", 0, "depose a coalesced fill stuck for N per-set ops (0: never; needs -coalesce)")
	recordPath := fs.String("record", "", "journal every request to this file (schema rwp-reqlog-v1)")
	snapPath := fs.String("snapshot", "", "write a state snapshot (schema rwp-snap-v5) here at graceful shutdown / selftest exit")
	snapEvery := fs.Uint64("snap-every", 0, "additionally checkpoint -snapshot every N data ops (serve mode; 0: shutdown only)")
	restorePath := fs.String("restore", "", "warm-start from this snapshot; a bad snapshot logs and starts cold")
	selftestSkip := fs.Int("selftest-skip", 0, "skip the first K of the -selftest ops (resume a stream after -restore)")
	transport := fs.String("transport", "direct", "transport for -selftest / -in: direct or tcp")
	batch := fs.Int("batch", 64, "max ops per binary MGET/MPUT frame (tcp transport)")
	pipeline := fs.Int("pipeline", 8, "frames per pipelined flush (tcp transport)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "rwpserve: %v\n", err)
		return code
	}
	if fs.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	tr, err := drive.ParseTransport(*transport)
	if err != nil {
		return fail(2, err)
	}
	r, code, err := resolve()
	if err != nil {
		return fail(code, err)
	}
	cfg := r.Config
	cfg.Coalesce = *coalesce
	cfg.NegOps = *negOps
	cfg.LeaseOps = *leaseOps

	if *snapEvery > 0 && (*snapPath == "" || r.Driven) {
		return fail(2, fmt.Errorf("-snap-every needs serve mode with -snapshot"))
	}
	if *selftestSkip < 0 || *selftestSkip > len(r.Ops) {
		// skip == selftest is allowed on purpose: it restores, replays
		// zero ops, prints stats, and re-snapshots — the fixed-point
		// probe TestSelftestRestartEquivalence runs.
		return fail(2, fmt.Errorf("-selftest-skip must be in [0, -selftest]"))
	}

	var closeLog func() error
	if *recordPath != "" {
		// The description names the geometry alone, so a journal this
		// binary wrote re-records to itself under -in.
		desc := fmt.Sprintf("rwpserve policy=%s sets=%d ways=%d", cfg.Policy, cfg.Sets, cfg.Ways)
		log, cl, err := openReqLog(*recordPath, desc)
		if err != nil {
			return fail(2, err)
		}
		cfg.ReqLog = log
		closeLog = cl
	}

	c, err := live.New(cfg)
	if err != nil {
		return fail(2, err)
	}

	if *restorePath != "" {
		// A bad snapshot — unreadable, corrupt, wrong geometry — must
		// never take the server down or leave partial state: log why
		// and serve cold, exactly as if no snapshot existed.
		if rerr := restoreCache(c, *restorePath); rerr != nil {
			fmt.Fprintf(stderr, "rwpserve: restore %s: %v; starting cold\n", *restorePath, rerr)
		}
	}

	if r.Driven {
		err := runSelftest(stdout, c, tr, r.Ops[*selftestSkip:], *batch, *pipeline)
		if err == nil && *snapPath != "" {
			err = snap.WriteFile(*snapPath, c.Snapshot())
		}
		if err == nil && closeLog != nil {
			err = closeLog()
		}
		if err != nil {
			return fail(1, err)
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
		return fail(1, err)
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

// runSelftest drives ops — a seeded loadgen stream, or a recorded
// journal's — single-goroutine against c through the chosen transport
// and prints the stats payload fetched through that same transport.
// Deterministic: the output is bit-identical across repeated runs and
// across transports — the differential tests
// compare these bytes directly, and a journal replays to the recorded
// run's bytes.
//
// Under -selftest-skip K the caller passes the stream from op K on, so
// a -restore'd server resumes exactly where the snapshotted run left
// off: restore at op K + replay ops K..n must print the same bytes as
// a never-restarted n-op run.
func runSelftest(w io.Writer, c *live.Cache, transport string, ops []loadgen.Op, batch, depth int) error {
	tgt, err := drive.New(transport, c, batch, depth)
	if err != nil {
		return err
	}
	defer tgt.Close()
	if err := tgt.Replay(ops); err != nil {
		return err
	}
	data, err := tgt.StatsJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
