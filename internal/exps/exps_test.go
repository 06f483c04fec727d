package exps

import (
	"strings"
	"testing"
)

// tiny is a test-sized scale: enough accesses to warm the predictors and
// observe direction, small enough to keep the package test fast.
var tiny = Scale{Name: "tiny", Warmup: 60_000, Measure: 200_000, Mixes: 1, E8Phase: 300_000}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 15 { // E1..E11 + A1..A4
		t.Fatalf("%d experiments registered, want 15", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestE1Shape(t *testing.T) {
	s := NewSuite(tiny)
	tb, res, err := s.E1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 20 {
		t.Fatalf("E1 covered %d benchmarks", len(res.Rows))
	}
	for _, r := range res.Rows {
		sum := r.ReadOnly + r.ReadWrite + r.WriteOnly
		if r.Evicted > 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("%s: fractions sum to %v", r.Bench, sum)
		}
	}
	// The motivation must hold: a substantial mean write-only fraction.
	if res.MeanWriteOnly < 0.15 {
		t.Errorf("mean write-only fraction %.3f; motivation too weak", res.MeanWriteOnly)
	}
	if !strings.Contains(tb.String(), "write-only") {
		t.Error("table missing write-only column")
	}
	// The whole suite's eviction counts, held to their file: a profile
	// outside the pinned scope that changes its stream shows here.
	checkPinned(t, "e1-suite", tb)
}

func TestE2CriticalityShape(t *testing.T) {
	s := NewSuite(tiny)
	_, res, err := s.E2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// At DRAM-scale latency (200 cycles) loads must lose far more than
	// stores; at extreme latencies the store buffer legitimately
	// saturates too, so the asymmetry is checked where buffering holds.
	var p200 *E2Point
	for i := range res.Points {
		if res.Points[i].Latency == 200 {
			p200 = &res.Points[i]
		}
	}
	if p200 == nil {
		t.Fatal("no 200-cycle point")
	}
	if p200.LoadLoss < 2*p200.StoreLoss {
		t.Fatalf("load loss %.2f vs store loss %.2f: criticality asymmetry missing",
			p200.LoadLoss, p200.StoreLoss)
	}
	// Loss must be monotone in latency for loads.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].LoadLoss+1e-9 < res.Points[i-1].LoadLoss {
			t.Fatal("load loss not monotone in latency")
		}
	}
}

func TestE3HeadlineDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(tiny)
	tb, res, err := s.E3()
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "e3-suite", tb)
	if res.GeoSensitive <= 1.02 {
		t.Fatalf("sensitive geomean %.4f; RWP must clearly beat LRU", res.GeoSensitive)
	}
	if res.GeoAll <= 1.0 {
		t.Fatalf("all-suite geomean %.4f; RWP must not lose overall", res.GeoAll)
	}
	// Insensitive benchmarks must be ~unaffected.
	if res.GeoInsensitive < 0.97 || res.GeoInsensitive > 1.03 {
		t.Fatalf("insensitive geomean %.4f; should be ~1.0", res.GeoInsensitive)
	}
	if len(res.Rows) != len(s.allBenches()) {
		t.Fatalf("%d rows for %d benches", len(res.Rows), len(s.allBenches()))
	}
}

// TestFullScaleMatchesResults pins the run lengths that results/ was
// recorded at: every simulated table there comes from Full, and no test
// runs at full scale, so a changed length would move the next `make
// paper` with tier-1 green. A deliberate change regenerates results/
// with `rwpexp -scale full -csv results` and updates this row.
func TestFullScaleMatchesResults(t *testing.T) {
	want := Scale{Name: "full", Warmup: 400_000, Measure: 1_600_000, Mixes: 10, E8Phase: 1_500_000}
	if Full != want {
		t.Fatalf("Full = %+v, want %+v, the scale results/ was recorded at", Full, want)
	}
}

func TestE5OverheadClaim(t *testing.T) {
	s := NewSuite(tiny)
	_, res, err := s.E5()
	if err != nil {
		t.Fatal(err)
	}
	if res.RWPOverRRP <= 0 || res.RWPOverRRP > 0.10 {
		t.Fatalf("RWP/RRP state ratio %.4f, want (0, 0.10] (paper 0.054)", res.RWPOverRRP)
	}
	if res.RWPKiB > 8 {
		t.Fatalf("RWP costs %.1f KiB", res.RWPKiB)
	}
	if len(res.Breakdowns) < 5 {
		t.Fatal("missing mechanisms in E5")
	}
}

func TestE8PartitionAdapts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(tiny)
	_, res, err := s.E8()
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 (dirty reads) must demand a larger dirty partition than the
	// steady state of a write-once-dominated profile.
	if res.Phase1Mean < 2 {
		t.Fatalf("phase-1 dirty target %.2f; dirty-read phase not recognized", res.Phase1Mean)
	}
	if res.PerBench["lbm"] > res.PerBench["cactusADM"] {
		t.Fatalf("lbm target %.2f > cactusADM %.2f; ordering wrong",
			res.PerBench["lbm"], res.PerBench["cactusADM"])
	}
}

func TestE7MixDrawing(t *testing.T) {
	s := NewSuite(tiny)
	mixes := s.e7DrawMixes(8)
	if len(mixes) != 8 {
		t.Fatalf("%d mixes", len(mixes))
	}
	sens := map[string]bool{}
	for _, n := range s.sensitive() {
		sens[n] = true
	}
	for _, m := range mixes {
		if len(m) != 4 {
			t.Fatalf("mix size %d", len(m))
		}
		seen := map[string]bool{}
		nSens := 0
		for _, b := range m {
			if seen[b] {
				t.Fatalf("duplicate %s in mix %v", b, m)
			}
			seen[b] = true
			if sens[b] {
				nSens++
			}
		}
		if nSens < 2 {
			t.Fatalf("mix %v has %d sensitive members, want >= 2", m, nSens)
		}
	}
	// Deterministic.
	again := s.e7DrawMixes(8)
	for i := range mixes {
		for j := range mixes[i] {
			if mixes[i][j] != again[i][j] {
				t.Fatal("mix drawing not deterministic")
			}
		}
	}
}

func TestRunnerMemoizes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(tiny)
	a, err := s.runSingle("povray", "lru", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.runSingle("povray", "lru", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoized run differs")
	}
	st := s.Eng.Stats()
	if st.Executed != 1 {
		t.Fatalf("engine executed %d jobs, want 1 (duplicate must coalesce)", st.Executed)
	}
	if st.Coalesced != 1 {
		t.Fatalf("engine coalesced %d submissions, want 1", st.Coalesced)
	}
}

func TestInsensitiveIsComplement(t *testing.T) {
	s := NewSuite(tiny)
	all := len(s.allBenches())
	if len(s.sensitive())+len(s.insensitive()) != all {
		t.Fatal("sensitive + insensitive != all")
	}
	// A restricted suite scopes every list.
	s.Benches = []string{"sphinx3", "povray"}
	if len(s.allBenches()) != 2 || len(s.sensitive()) != 1 || len(s.insensitive()) != 1 {
		t.Fatalf("restricted suite lists wrong: all=%v sens=%v insens=%v",
			s.allBenches(), s.sensitive(), s.insensitive())
	}
}
