package live_test

import (
	"fmt"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/stats"
)

// hitGeometry is one RWP-vs-LRU comparison setup: cache shape plus the
// simulator's warmup/measure discipline (warm ops, ResetStats, measure
// ops).
type hitGeometry struct {
	sets, ways    int
	interval      uint64 // RWP repartition interval; 0 keeps the default
	warm, measure int
}

// hitRow is one profile's pinned outcome, as printed in EXPERIMENTS.md
// L1: read-hit rates in percent to two decimals, their ratio to three.
// ratio is "" where LRU's read-hit rate is essentially zero — any RWP
// hits would make the ratio arbitrarily large, so such rows are pinned
// but excluded from the geomean rather than inflating it.
type hitRow struct {
	profile         string
	lru, rwp, ratio string
}

// readHitRate replays profile's single-goroutine loadgen stream against
// a fresh cache under policy and returns the measured-phase read-hit
// rate. Deterministic: same numbers on every run and every host.
func readHitRate(t *testing.T, g hitGeometry, policy, profile string) float64 {
	t.Helper()
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways = g.sets, g.ways
	cfg.Policy = policy
	if g.interval > 0 {
		cfg.RWP.Interval = g.interval
	}
	cfg.Loader = loadgen.AbsentLoader(0)
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadgen.NewStream(profile, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.Run(c, s, g.warm)
	c.ResetStats()
	loadgen.Run(c, s, g.measure)
	return c.Stats().ReadHitRate()
}

// checkHitTable measures every row under lru and rwp and compares rate,
// ratio and geomean with the pinned strings.
func checkHitTable(t *testing.T, g hitGeometry, rows []hitRow, wantGeomean string) {
	t.Helper()
	const eps = 1e-3 // below this LRU rate the ratio is undefined
	var ratios []float64
	for _, row := range rows {
		lru := readHitRate(t, g, "lru", row.profile)
		rwp := readHitRate(t, g, "rwp", row.profile)
		ratio := ""
		if lru >= eps {
			r := max(rwp, eps) / lru
			ratios = append(ratios, r)
			ratio = fmt.Sprintf("%.3f", r)
		}
		got := hitRow{row.profile, fmt.Sprintf("%.2f", 100*lru), fmt.Sprintf("%.2f", 100*rwp), ratio}
		if got != row {
			t.Errorf("%s: lru %s%% rwp %s%% ratio %q, want %s%% / %s%% / %q",
				row.profile, got.lru, got.rwp, got.ratio, row.lru, row.rwp, row.ratio)
		}
	}
	gm := stats.GeoMean(ratios)
	if got := fmt.Sprintf("%.3f", gm); got != wantGeomean {
		t.Errorf("rwp/lru read-hit geomean %s, want %s", got, wantGeomean)
	}
	if gm < 1.0 {
		t.Errorf("RWP's read-hit geomean %.3f is below LRU's", gm)
	}
}

// TestRWPReadHitsSmall is the always-on slice of the L1 claim: two
// profiles at a small geometry, milliseconds even under the race
// detector. The full table is TestRWPReadHitTable (hitrate_table_test.go).
func TestRWPReadHitsSmall(t *testing.T) {
	checkHitTable(t, hitGeometry{sets: 256, ways: 8, interval: 32, warm: 10_000, measure: 20_000}, []hitRow{
		{"gcc", "41.41", "43.50", "1.050"},
		{"mcf", "17.47", "19.67", "1.126"},
	}, "1.088")
}
