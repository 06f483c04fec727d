package sim

import (
	"testing"

	"rwp/internal/hier"
	"rwp/internal/workload"
)

// fastOptions shrinks the system and run length for test speed while
// keeping the capacity relationships (footprint vs LLC) meaningful.
func fastOptions(policy string) Options {
	opt := DefaultOptions()
	opt.Hier.LLCPolicy = policy
	opt.Warmup = 100_000
	opt.Measure = 300_000
	return opt
}

func TestRunSingleSmoke(t *testing.T) {
	prof, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSingle(prof, fastOptions("lru"))
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.IPC > float64(DefaultOptions().CPU.Width) {
		t.Fatalf("IPC %v out of range", res.IPC)
	}
	if res.Instructions == 0 || res.Core.Cycles == 0 {
		t.Fatalf("empty measured region: %+v", res.Core)
	}
	if res.LLC.TotalAccesses() == 0 {
		t.Fatal("LLC never touched")
	}
	if res.Workload != "gcc" || res.Policy != "lru" {
		t.Fatalf("labels wrong: %q %q", res.Workload, res.Policy)
	}
}

func TestRunSingleDeterministic(t *testing.T) {
	prof, _ := workload.Get("astar")
	a, err := RunSingle(prof, fastOptions("rwp"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSingle(prof, fastOptions("rwp"))
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.LLC != b.LLC || a.Core != b.Core {
		t.Fatal("same-options runs differ")
	}
}

func TestValidation(t *testing.T) {
	prof, _ := workload.Get("gcc")
	opt := fastOptions("lru")
	opt.Measure = 0
	if _, err := RunSingle(prof, opt); err == nil {
		t.Error("zero measure accepted")
	}
	opt = fastOptions("lru")
	opt.Hier.Cores = 2
	if _, err := RunSingle(prof, opt); err == nil {
		t.Error("multi-core hierarchy accepted by RunSingle")
	}
	if _, err := RunMulti(nil, fastOptions("lru")); err == nil {
		t.Error("empty mix accepted")
	}
}

func TestMemIntensityDrivesIPC(t *testing.T) {
	// A compute-bound profile must achieve much higher IPC than a
	// memory-bound streaming one.
	light, _ := workload.Get("povray")
	heavy, _ := workload.Get("libquantum")
	lr, err := RunSingle(light, fastOptions("lru"))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := RunSingle(heavy, fastOptions("lru"))
	if err != nil {
		t.Fatal(err)
	}
	if lr.IPC < 2*hr.IPC {
		t.Fatalf("compute-bound IPC %v not ≫ streaming IPC %v", lr.IPC, hr.IPC)
	}
}

func TestRWPImprovesReadMissesOnSensitiveWorkload(t *testing.T) {
	prof, _ := workload.Get("mcf")
	lru, err := RunSingle(prof, fastOptions("lru"))
	if err != nil {
		t.Fatal(err)
	}
	rwp, err := RunSingle(prof, fastOptions("rwp"))
	if err != nil {
		t.Fatal(err)
	}
	if rwp.ReadMPKI >= lru.ReadMPKI {
		t.Fatalf("RWP ReadMPKI %.3f >= LRU %.3f on mcf", rwp.ReadMPKI, lru.ReadMPKI)
	}
	if rwp.IPC <= lru.IPC {
		t.Fatalf("RWP IPC %.4f <= LRU %.4f on mcf", rwp.IPC, lru.IPC)
	}
}

func TestRunMultiSmoke(t *testing.T) {
	names := []string{"gcc", "povray", "libquantum", "astar"}
	profs := make([]workload.Profile, len(names))
	for i, n := range names {
		p, err := workload.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		profs[i] = p
	}
	opt := fastOptions("lru")
	opt.Hier = hier.MulticoreConfig(4)
	opt.Hier.LLCPolicy = "lru"
	opt.Warmup = 50_000
	opt.Measure = 150_000
	res, err := RunMulti(profs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 4 {
		t.Fatalf("%d per-core results", len(res.PerCore))
	}
	for i, r := range res.PerCore {
		if r.IPC <= 0 {
			t.Fatalf("core %d IPC %v", i, r.IPC)
		}
		if r.Workload != names[i] {
			t.Fatalf("core %d workload %q", i, r.Workload)
		}
	}
	if res.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	profs := make([]workload.Profile, 2)
	for i, n := range []string{"gcc", "lbm"} {
		p, _ := workload.Get(n)
		profs[i] = p
	}
	opt := fastOptions("rwp")
	opt.Hier = hier.MulticoreConfig(2)
	opt.Hier.LLCPolicy = "rwp"
	opt.Warmup = 20_000
	opt.Measure = 80_000
	a, err := RunMulti(profs, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(profs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.IPCs {
		if a.IPCs[i] != b.IPCs[i] {
			t.Fatal("multi-core run not deterministic")
		}
	}
}

func TestSharedLLCContentionHurts(t *testing.T) {
	// gcc alone vs gcc sharing the LLC with three streamers: shared IPC
	// must drop.
	prof, _ := workload.Get("gcc")
	aloneOpt := fastOptions("lru")
	aloneOpt.Hier = hier.MulticoreConfig(1)
	aloneOpt.Hier.LLCPolicy = "lru"
	alone, err := RunSingle(prof, aloneOpt)
	if err != nil {
		t.Fatal(err)
	}

	names := []string{"gcc", "libquantum", "lbm", "milc"}
	profs := make([]workload.Profile, len(names))
	for i, n := range names {
		p, _ := workload.Get(n)
		profs[i] = p
	}
	opt := fastOptions("lru")
	opt.Hier = hier.MulticoreConfig(4)
	opt.Hier.LLCPolicy = "lru"
	opt.Warmup = 50_000
	opt.Measure = 150_000
	shared, err := RunMulti(profs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if shared.PerCore[0].IPC >= alone.IPC {
		t.Fatalf("gcc shared IPC %v >= alone IPC %v", shared.PerCore[0].IPC, alone.IPC)
	}
}

func TestRunMultiPerCoreMPKI(t *testing.T) {
	// A cache-hungry core must show a higher per-core LLC read MPKI than
	// a compute-bound one in the same mix.
	profs := make([]workload.Profile, 2)
	for i, n := range []string{"libquantum", "povray"} {
		p, _ := workload.Get(n)
		profs[i] = p
	}
	opt := fastOptions("lru")
	opt.Hier = hier.MulticoreConfig(2)
	opt.Hier.LLCPolicy = "lru"
	opt.Warmup = 30_000
	opt.Measure = 120_000
	res, err := RunMulti(profs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerCore[0].ReadMPKI <= res.PerCore[1].ReadMPKI {
		t.Fatalf("streamer MPKI %.2f <= compute-bound MPKI %.2f",
			res.PerCore[0].ReadMPKI, res.PerCore[1].ReadMPKI)
	}
	if res.PerCore[1].ReadMPKI > 1 {
		t.Fatalf("povray MPKI %.2f, want ~0", res.PerCore[1].ReadMPKI)
	}
}
