package rwp

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

var fastCfg = Config{Warmup: 60_000, Measure: 200_000}

func TestRunSmoke(t *testing.T) {
	cfg := fastCfg
	cfg.Policy = "rwp"
	res, err := Run("gcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Workload != "gcc" || res.Policy != "rwp" {
		t.Fatalf("bad result: %+v", res)
	}
	if res.LLCReadHitRate < 0 || res.LLCReadHitRate > 1 {
		t.Fatalf("hit rate %v", res.LLCReadHitRate)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run("nope", fastCfg); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	cfg := fastCfg
	cfg.Policy = "nope"
	if _, err := Run("gcc", cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// An LLC wider than the recency stacks can track must come back as an
// ordinary error from every policy, never as a panic from deep inside
// policy construction.
func TestRunRejectsOverWideLLC(t *testing.T) {
	for _, pol := range []string{"lru", "rwp", "drrip"} {
		cfg := fastCfg
		cfg.Policy, cfg.LLCWays, cfg.LLCBytes = pol, 512, 4<<20
		if _, err := Run("mcf", cfg); err == nil || !strings.Contains(err.Error(), "ways 512") {
			t.Errorf("%s: 512-way LLC: err = %v, want a ways-limit error", pol, err)
		}
	}
	cfg := fastCfg
	cfg.LLCWays, cfg.LLCBytes = 512, 4<<20
	if _, err := RunMix([]string{"mcf", "gcc"}, cfg); err == nil {
		t.Error("RunMix accepted a 512-way LLC")
	}
}

// A whole job allocates at construction only: quadrupling the measured
// region must not add one allocation. This is the end-to-end form of the
// per-layer pins in internal/cpu and internal/cache. The warmup is long
// enough for RWP's sampler shadow stacks to reach their fixed capacity
// (they grow to `ways` entries once, lazily, because the live cache
// shares them and pays heap for every set); after that nothing grows.
func TestRunAllocationsIndependentOfLength(t *testing.T) {
	for _, pol := range []string{"lru", "rwp"} {
		allocs := func(measure uint64) int {
			cfg := Config{Policy: pol, Warmup: 200_000, Measure: measure}
			best := -1
			for try := 0; try < 3; try++ { // min: a stray runtime allocation only ever adds
				n := int(testing.AllocsPerRun(1, func() {
					if _, err := Run("mcf", cfg); err != nil {
						t.Fatal(err)
					}
				}))
				if best < 0 || n < best {
					best = n
				}
			}
			return best
		}
		if short, long := allocs(50_000), allocs(200_000); short != long {
			t.Errorf("%s: %d allocs at Measure 50k, %d at 200k; the run loop allocates", pol, short, long)
		}
	}
}

func TestRWPHeadlineOnOneBenchmark(t *testing.T) {
	base := fastCfg
	base.Policy = "lru"
	lru, err := Run("sphinx3", base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg
	cfg.Policy = "rwp"
	res, err := Run("sphinx3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= lru.IPC {
		t.Fatalf("RWP IPC %.3f <= LRU %.3f on sphinx3", res.IPC, lru.IPC)
	}
	if res.ReadMPKI >= lru.ReadMPKI {
		t.Fatalf("RWP ReadMPKI %.2f >= LRU %.2f", res.ReadMPKI, lru.ReadMPKI)
	}
}

func TestRunMix(t *testing.T) {
	cfg := fastCfg
	cfg.Policy = "rwp"
	mix := []string{"gcc", "povray", "sphinx3", "namd"}
	res, err := RunMix(mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 4 || res.Throughput <= 0 {
		t.Fatalf("bad mix result: %+v", res)
	}
	alone := []float64{1, 1, 1, 1}
	if ws := res.WeightedSpeedup(alone); ws != res.Throughput {
		t.Fatalf("weighted speedup with unit alone IPCs %.3f != throughput %.3f", ws, res.Throughput)
	}
}

func TestWorkloadsAndPolicies(t *testing.T) {
	ws := Workloads()
	if len(ws) < 20 {
		t.Fatalf("%d workloads", len(ws))
	}
	foundSensitive := false
	for _, w := range ws {
		if w.MemIntensity <= 0 {
			t.Errorf("%s has non-positive intensity", w.Name)
		}
		if w.CacheSensitive {
			foundSensitive = true
		}
	}
	if !foundSensitive {
		t.Error("no sensitive workloads listed")
	}
	// Exactly E4 ∪ E7 ∪ A4: every registered policy is a baseline some
	// experiment compares, and instrumentation policies stay hidden.
	want := []string{"dip", "drrip", "lru", "rrp", "rwp", "rwpb", "ship", "tadip", "ucp"}
	if got := Policies(); !slices.Equal(got, want) {
		t.Errorf("Policies() = %v, want %v", got, want)
	}
}

func TestTraceRoundTripViaPublicAPI(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, "bzip2", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10_000 {
		t.Fatalf("wrote %d records", n)
	}
	sum, err := ReadTraceSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accesses != 10_000 || sum.Loads+sum.Stores != sum.Accesses {
		t.Fatalf("summary wrong: %+v", sum)
	}
	if sum.ReadRatio <= 0 || sum.ReadRatio >= 1 {
		t.Fatalf("read ratio %v", sum.ReadRatio)
	}
}

func TestRunPhases(t *testing.T) {
	// Phases must be long enough for several 100k-access repartitioning
	// intervals each, or the target cannot adapt within the run.
	cfg := Config{Policy: "rwp", Warmup: 100_000, Measure: 500_000}
	res, series, err := RunPhases([]string{"cactusADM", "sphinx3"}, cfg, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatal("empty result")
	}
	want := int(2 * cfg.Measure / 100_000)
	if len(series) != want {
		t.Fatalf("%d intervals, want %d", len(series), want)
	}
	// The dirty target must be higher in the producer-consumer phase
	// than at the end of the clean phase.
	first := series[0].DirtyTarget
	last := series[len(series)-1].DirtyTarget
	if first <= last {
		t.Fatalf("dirty target did not shrink across phases: %d -> %d", first, last)
	}
	if _, _, err := RunPhases(nil, cfg, 1000); err == nil {
		t.Fatal("empty phase list accepted")
	}
	if _, _, err := RunPhases([]string{"nope"}, cfg, 1000); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestRunPhasesOnePhaseMatchesRun: a single phase is a plain run with a
// time series attached; both go through the simulator's one single-core
// loop, so the Results are equal field for field.
func TestRunPhasesOnePhaseMatchesRun(t *testing.T) {
	cfg := fastCfg
	cfg.Policy = "rwp"
	plain, err := Run("gcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	phased, series, err := RunPhases([]string{"gcc"}, cfg, cfg.Measure/4)
	if err != nil {
		t.Fatal(err)
	}
	if phased != plain {
		t.Fatalf("one-phase run diverged from Run:\n got %+v\nwant %+v", phased, plain)
	}
	if len(series) != 4 || series[3].EndAccess != cfg.Measure {
		t.Fatalf("series %+v, want 4 windows ending at access %d", series, cfg.Measure)
	}
}

func TestRunTraceMatchesRun(t *testing.T) {
	// A recorded trace replayed through RunTrace must reproduce the
	// generator-driven run exactly.
	cfg := fastCfg
	cfg.Policy = "rwp"
	direct, err := Run("bzip2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, "bzip2", cfg.Warmup+cfg.Measure); err != nil {
		t.Fatal(err)
	}
	replayed, err := RunTrace("bzip2", &buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.IPC != replayed.IPC || direct.ReadMPKI != replayed.ReadMPKI {
		t.Fatalf("replay diverged: IPC %v vs %v, MPKI %v vs %v",
			direct.IPC, replayed.IPC, direct.ReadMPKI, replayed.ReadMPKI)
	}
}

func TestRunTraceRejectsGarbage(t *testing.T) {
	if _, err := RunTrace("x", bytes.NewReader([]byte("junk")), fastCfg); err == nil {
		t.Fatal("garbage trace accepted")
	}
}

func TestStateOverheadAPI(t *testing.T) {
	rwpBits, desc, err := StateOverhead("rwp", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "sampler") {
		t.Errorf("breakdown missing sampler: %s", desc)
	}
	rrpBits, _, err := StateOverhead("rrp", Config{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rwpBits) / float64(rrpBits)
	if ratio <= 0 || ratio > 0.10 {
		t.Fatalf("RWP/RRP = %.4f, want the paper's ~5%% regime", ratio)
	}
	if _, _, err := StateOverhead("nope", Config{}); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	if _, _, err := StateOverhead("lru", Config{LLCBytes: 12345}); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestWriteTraceErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, "nope", 10); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := ReadTraceSummary(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage summary accepted")
	}
}

func TestStateOverheadAllMechanisms(t *testing.T) {
	for _, pol := range []string{"lru", "dip", "drrip", "ship", "rwp", "rrp"} {
		bits, desc, err := StateOverhead(pol, Config{})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if bits == 0 || desc == "" {
			t.Fatalf("%s: empty accounting", pol)
		}
	}
	// Geometry overrides flow through.
	small, _, err := StateOverhead("lru", Config{LLCBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := StateOverhead("lru", Config{LLCBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatal("larger LLC did not cost more recency state")
	}
}

func TestSeedRobustness(t *testing.T) {
	// Different seeds change the concrete access stream but not the
	// workload's character: RWP's advantage on sphinx3 must hold across
	// seeds, and the streams must actually differ.
	var ipcs []float64
	for _, seed := range []uint64{0, 1, 2} {
		base := fastCfg
		base.Policy = "lru"
		base.Seed = seed
		lru, err := Run("sphinx3", base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastCfg
		cfg.Policy = "rwp"
		cfg.Seed = seed
		res, err := Run("sphinx3", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.IPC <= lru.IPC {
			t.Fatalf("seed %d: RWP %.3f <= LRU %.3f", seed, res.IPC, lru.IPC)
		}
		ipcs = append(ipcs, res.IPC)
	}
	if ipcs[0] == ipcs[1] && ipcs[1] == ipcs[2] {
		t.Fatal("seed offsets did not change the stream")
	}
}

func TestConfigOverridesApply(t *testing.T) {
	small := fastCfg
	small.Policy = "lru"
	small.LLCBytes = 1 << 20
	rSmall, err := Run("sphinx3", small)
	if err != nil {
		t.Fatal(err)
	}
	big := small
	big.LLCBytes = 8 << 20
	rBig, err := Run("sphinx3", big)
	if err != nil {
		t.Fatal(err)
	}
	if rBig.ReadMPKI >= rSmall.ReadMPKI {
		t.Fatalf("8 MiB MPKI %.2f >= 1 MiB MPKI %.2f; size override ignored?", rBig.ReadMPKI, rSmall.ReadMPKI)
	}
}
