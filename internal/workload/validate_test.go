package workload

import (
	"strings"
	"testing"
)

func TestProfileValidateErrors(t *testing.T) {
	good := Profile{
		Name: "x", Seed: 1, MemIntensity: 0.2,
		Components: []ComponentSpec{{Weight: 1, Behavior: Zipf, Lines: 100, ReadRatio: 0.5}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"empty name", func(p *Profile) { p.Name = "" }},
		{"zero intensity", func(p *Profile) { p.MemIntensity = 0 }},
		{"intensity > 1", func(p *Profile) { p.MemIntensity = 1.5 }},
		{"no components", func(p *Profile) { p.Components = nil }},
		{"zero weight", func(p *Profile) { p.Components[0].Weight = 0 }},
		{"zero lines", func(p *Profile) { p.Components[0].Lines = 0 }},
		{"bad read ratio", func(p *Profile) { p.Components[0].ReadRatio = 1.5 }},
		{"unknown behavior", func(p *Profile) { p.Components[0].Behavior = Behavior(99) }},
	}
	for _, c := range cases {
		p := good
		p.Components = append([]ComponentSpec(nil), good.Components...)
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestBehaviorString(t *testing.T) {
	cases := map[Behavior]string{
		Stream:           "stream",
		PointerChase:     "chase",
		Zipf:             "zipf",
		WriteOnce:        "write-once",
		ProducerConsumer: "prod-cons",
		Stack:            "stack",
		Behavior(42):     "behavior(42)",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", b, got, want)
		}
	}
}

func TestWithSeedChangesStreamOnly(t *testing.T) {
	base, err := Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	shifted := base.WithSeed(5)
	if shifted.Seed != base.Seed+5 {
		t.Fatal("seed not offset")
	}
	if shifted.Name != base.Name || shifted.MemIntensity != base.MemIntensity {
		t.Fatal("WithSeed changed profile identity")
	}
	// Different concrete streams.
	a, _ := base.NewSource().Next()
	b, _ := shifted.NewSource().Next()
	s1, s2 := base.NewSource(), shifted.NewSource()
	same := true
	for i := 0; i < 50; i++ {
		x, _ := s1.Next()
		y, _ := s2.Next()
		if x != y {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("seed offset produced identical streams (first: %v vs %v)", a, b)
	}
	// Mutating the copy's components must not touch the registry.
	shifted.Components[0].Weight = 999
	again, _ := Get("gcc")
	if again.Components[0].Weight == 999 {
		t.Fatal("WithSeed aliased the registered component slice")
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		register(Profile{
			Name: "gcc", Seed: 1, MemIntensity: 0.2,
			Components: []ComponentSpec{{Weight: 1, Behavior: Zipf, Lines: 10}},
		})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid profile registration did not panic")
			}
		}()
		register(Profile{Name: "broken"})
	}()
}

func TestProdConsLagClamping(t *testing.T) {
	// Lag beyond the ring is clamped, negative lag becomes zero.
	c := newProdConsComp(0, 1024, 256, 1, 99, 0x400000) // ring=4, lag clamped to 3
	if c.lag != 3 {
		t.Fatalf("lag = %d, want 3", c.lag)
	}
	c = newProdConsComp(0, 1024, 256, 1, -5, 0x400000)
	if c.lag != 0 {
		t.Fatalf("negative lag = %d, want 0", c.lag)
	}
	// Tiny footprint still yields a 2-block ring.
	c = newProdConsComp(0, 100, 256, 1, 0, 0x400000)
	if c.ringBlocks != 2 {
		t.Fatalf("ring = %d, want 2", c.ringBlocks)
	}
}

func TestSharedPCPoolPresence(t *testing.T) {
	// ~20% of accesses must carry shared library PCs, split by kind.
	p, _ := Get("bzip2")
	src := p.NewSource()
	shared, total := 0, 20000
	for i := 0; i < total; i++ {
		a, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if a.PC >= sharedLoadPCBase && a.PC < sharedLoadPCBase+4*sharedPCPool {
			if !a.Kind.IsRead() {
				t.Fatal("store carried a shared load PC")
			}
			shared++
		}
		if a.PC >= sharedStorePCBase && a.PC < sharedStorePCBase+4*sharedPCPool {
			if !a.Kind.IsWrite() {
				t.Fatal("load carried a shared store PC")
			}
			shared++
		}
	}
	frac := float64(shared) / float64(total)
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("shared-PC fraction %.3f, want ~0.20", frac)
	}
}

func TestSuiteHasAll29SPECNames(t *testing.T) {
	want := []string{
		"perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng",
		"libquantum", "h264ref", "omnetpp", "astar", "xalancbmk",
		"bwaves", "gamess", "milc", "zeusmp", "gromacs", "cactusADM",
		"leslie3d", "namd", "dealII", "soplex", "povray", "calculix",
		"GemsFDTD", "tonto", "lbm", "wrf", "sphinx3",
	}
	if len(want) != 29 {
		t.Fatal("test list wrong")
	}
	names := strings.Join(Names(), " ")
	for _, n := range want {
		if !strings.Contains(names, n) {
			t.Errorf("missing SPEC CPU2006 profile %q", n)
		}
	}
	if len(Names()) != 29 {
		t.Errorf("suite has %d profiles, want exactly 29", len(Names()))
	}
}
