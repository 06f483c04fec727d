// Command rwpreplay drives a recorded request journal (rwpserve
// -record, schema rwp-reqlog-v1) back through any transport:
//
//	rwpreplay -in reqs.jsonl                          in-process replay,
//	                                                  print /stats JSON
//	rwpreplay -in reqs.jsonl -transport tcp           same stream over a
//	                                                  loopback binary
//	                                                  connection
//	rwpreplay -in reqs.jsonl -transport cluster       3-node in-process
//	                                                  cluster, merged
//	                                                  stats
//	rwpreplay -in reqs.jsonl -rate 5000               paced at ~5000
//	                                                  ops/s
//	rwpreplay -in reqs.jsonl -record again.jsonl      re-record while
//	                                                  replaying
//
// Every transport is a drive.Target — one cache behind direct calls or
// a loopback connection, or an in-process cluster.Cluster — so one
// function replays and prints for all of them.
//
// The replay equivalence contract: a journal recorded at some cache
// geometry, replayed at that same geometry (any -shards, any
// -transport), produces a stats document byte-identical to the
// recorded run's — scripts/check.sh gates this with cmp. Re-recording
// a replay reproduces the input journal byte for byte, because capture
// is clocked by op order, not wall time or transport framing.
//
// Pacing (-rate) is a wall-clock concern and so lives here in cmd/;
// it chunks the stream and never reorders it, so paced and full-speed
// replays yield identical stats.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rwp/internal/cluster"
	"rwp/internal/live"
	"rwp/internal/live/drive"
	"rwp/internal/live/loadgen"
	"rwp/internal/probe"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rwpreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "request journal to replay (required; schema rwp-reqlog-v1)")
	transport := fs.String("transport", "direct", "replay transport: direct, tcp, or cluster")
	policyName := fs.String("policy", "rwp", "replacement policy: lru or rwp")
	sets := fs.Int("sets", 1024, "total sets (power of two); match the recorded run")
	ways := fs.Int("ways", 16, "ways per set; match the recorded run")
	shards := fs.Int("shards", 8, "lock shards (behavior-invariant)")
	interval := fs.Uint64("interval", 0, "RWP repartition interval: ops per set between retargets, counted over each 8-set policy group (0: default)")
	valueSize := fs.Int("value-size", 0, "loader value size in bytes (0: default); match the recorded run")
	noLoader := fs.Bool("no-loader", false, "disable the synthetic backing store")
	batch := fs.Int("batch", 64, "max ops per binary MGET/MPUT frame (tcp transport)")
	pipeline := fs.Int("pipeline", 8, "frames per pipelined flush (tcp/cluster transport)")
	rate := fs.Int("rate", 0, "target replay rate in ops/sec (0: full speed)")
	recordPath := fs.String("record", "", "re-record the replay to this journal (not with -transport cluster)")
	nodes := fs.Int("nodes", 3, "cluster transport: in-process node count")
	ringShards := fs.Int("ring-shards", 64, "cluster transport: ring shards (must divide -sets into ranges of whole 8-set policy groups)")
	mode := fs.String("mode", "direct", "cluster transport: node links, direct or pipe")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rwpreplay: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "rwpreplay: -in is required")
		return 2
	}
	if *transport != "cluster" {
		if _, err := drive.ParseTransport(*transport); err != nil {
			fmt.Fprintf(stderr, "rwpreplay: %v (or cluster)\n", err)
			return 2
		}
	} else if *recordPath != "" {
		fmt.Fprintln(stderr, "rwpreplay: -record needs a single cache (drop -transport cluster)")
		return 2
	}

	desc, evs, err := readJournal(*in)
	if err != nil {
		fmt.Fprintf(stderr, "rwpreplay: %v\n", err)
		return 1
	}
	ops := drive.Ops(evs)

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

	build := func(cfg live.Config) (drive.Target, error) {
		if *transport == "cluster" {
			// No Window, no Log: the router windows at cluster.DefaultWindow
			// and discards its run log, so a replay of any length is routed
			// in constant memory.
			return cluster.NewHarness(cluster.HarnessConfig{
				Nodes:      *nodes,
				RingShards: *ringShards,
				Cache:      cfg,
				Mode:       cluster.Mode(*mode),
				Pipeline:   *pipeline,
			})
		}
		c, err := live.New(cfg)
		if err != nil {
			return nil, err
		}
		return drive.New(*transport, c, *batch, *pipeline)
	}
	if err := replay(stdout, cfg, build, ops, desc, *rate, *recordPath); err != nil {
		fmt.Fprintf(stderr, "rwpreplay: %v\n", err)
		return 1
	}
	return 0
}

// readJournal loads the recorded request stream.
func readJournal(path string) (desc string, evs []probe.ReqEvent, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	return probe.ReadReqLog(f)
}

// replay drives the stream through the target build makes — one cache
// behind a transport, or an in-process cluster, every one a
// drive.Target — and prints the stats document fetched through that
// same target. At replication factor one (no manager) a cluster's
// merged document is byte-identical to a single-node replay at the
// same geometry; the cluster leg of the record→replay smoke compares
// exactly that. With outPath set, the replay is itself recorded — the
// re-recorded journal reproduces the input byte for byte (same desc,
// same events) when the geometry matches the original run.
func replay(w io.Writer, cfg live.Config, build func(live.Config) (drive.Target, error), ops []loadgen.Op, desc string, rate int, outPath string) (err error) {
	var closeLog func() error
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		log, err := probe.NewReqLogWriter(f, desc)
		if err != nil {
			f.Close()
			return err
		}
		cfg.ReqLog = log
		closeLog = func() error {
			werr := log.Close()
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			return werr
		}
	}
	tgt, err := build(cfg)
	if err != nil {
		return err
	}
	defer func() {
		// A cluster in pipe mode reports its server loops' errors here.
		if cerr := tgt.Close(); err == nil {
			err = cerr
		}
	}()
	if err := paced(ops, rate, tgt.Replay); err != nil {
		return err
	}
	if closeLog != nil {
		if err := closeLog(); err != nil {
			return err
		}
	}
	data, err := tgt.StatsJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// paced applies the stream through apply, either whole (rate <= 0) or
// chunked onto a wall-clock ticker at ~rate ops/sec. Chunks preserve
// stream order, so pacing cannot change any op-count-clocked outcome.
func paced(ops []loadgen.Op, rate int, apply func([]loadgen.Op) error) error {
	if rate <= 0 {
		return apply(ops)
	}
	const tick = 50 * time.Millisecond
	chunk := rate / int(time.Second/tick)
	if chunk < 1 {
		chunk = 1
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for len(ops) > 0 {
		n := chunk
		if n > len(ops) {
			n = len(ops)
		}
		if err := apply(ops[:n]); err != nil {
			return err
		}
		ops = ops[n:]
		if len(ops) > 0 {
			<-t.C
		}
	}
	return nil
}
