package drive

import (
	"flag"
	"fmt"
	"os"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/probe"
)

// Run is what the shared live flags resolve to once parsed.
type Run struct {
	// Config is the cache every node of the run is built from.
	Config live.Config
	// Driven is set when -selftest N or -in asks for a driven run:
	// drive Ops, print the stats document, exit.
	Driven bool
	// Ops is the stream to drive: -selftest's generated ops or the
	// journal's, in order.
	Ops []loadgen.Op
	// Source names where Ops come from, for journal headers:
	// "profile=P seed=S" or "in=PATH".
	Source string
}

// Flags registers the flag group the live binaries share on fs — the
// cache geometry (-policy -sets -ways -shards -interval -value-size
// -no-loader) and the op source (-selftest -profile -seed -in) — and
// returns the function that resolves them once fs is parsed. A usage
// error is reported with exit code 2, an unreadable journal with 1.
//
// -in replaces the generated stream with a recorded journal's ops
// (probe.ReadReqLog), replayed whole, so it refuses every flag that
// shapes the generated stream: -selftest, -profile, -seed, and
// rwpserve's -selftest-skip.
func Flags(fs *flag.FlagSet) func() (Run, int, error) {
	policy := fs.String("policy", "rwp", "replacement policy: lru or rwp")
	sets := fs.Int("sets", 1024, "total sets per cache (power of two)")
	ways := fs.Int("ways", 16, "ways per set")
	shards := fs.Int("shards", 8, "lock shards per cache (must divide sets into whole 8-set policy groups; behavior-invariant)")
	interval := fs.Uint64("interval", 0, "RWP repartition interval: ops per set between retargets, counted over each 8-set policy group (0: default)")
	valueSize := fs.Int("value-size", 0, "synthetic value size in bytes (0: default); match the recorded run under -in")
	noLoader := fs.Bool("no-loader", false, "disable the synthetic backing store (Get misses answer miss)")
	selftest := fs.Int("selftest", 0, "run N generated ops, print the stats JSON, exit")
	profile := fs.String("profile", "mcf", "workload profile for -selftest (adv:* included)")
	seed := fs.Uint64("seed", 0, "loadgen seed offset for -selftest")
	in := fs.String("in", "", "replay this request journal (schema rwp-reqlog-v1) instead of -selftest, print the stats JSON, exit")

	return func() (Run, int, error) {
		cfg := live.DefaultConfig()
		cfg.Sets, cfg.Ways, cfg.Shards = *sets, *ways, *shards
		cfg.Policy = *policy
		if *interval > 0 {
			cfg.RWP.Interval = *interval
		}
		if !*noLoader {
			// The backing store has a hole at loadgen's absent keyspace, so
			// the adversarial scan profile sees true backend misses; for
			// every other key it serves the bytes Loader always has. Every
			// live binary builds it here, so journals recorded by one
			// replay bit-identically through the other.
			cfg.Loader = loadgen.AbsentLoader(*valueSize)
		}
		r := Run{Config: cfg}

		if *in == "" {
			if *selftest <= 0 {
				return r, 0, nil
			}
			g, err := loadgen.NewStream(*profile, *seed, *valueSize)
			if err != nil {
				return r, 2, err
			}
			r.Driven, r.Ops = true, loadgen.Take(g, *selftest)
			r.Source = fmt.Sprintf("profile=%s seed=%d", *profile, *seed)
			return r, 0, nil
		}

		var clash error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "selftest", "profile", "seed", "selftest-skip":
				clash = fmt.Errorf("-%s shapes a generated stream; -in replays the journal whole", f.Name)
			}
		})
		if clash != nil {
			return r, 2, clash
		}
		evs, err := readReqLog(*in)
		if err != nil {
			return r, 1, err
		}
		r.Driven, r.Ops, r.Source = true, Ops(evs), "in="+*in
		return r, 0, nil
	}
}

// readReqLog loads a recorded request stream.
func readReqLog(path string) ([]probe.ReqEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, evs, err := probe.ReadReqLog(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}
