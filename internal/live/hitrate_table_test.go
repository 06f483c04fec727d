//go:build !race

package live_test

import (
	"slices"
	"testing"

	"rwp/internal/workload"
)

// This file is excluded under the race detector: the table is 12 M
// single-goroutine cache ops — nothing for the detector to check, and
// ~2.5 min instead of ~12 s when instrumented.

// TestRWPReadHitTable pins EXPERIMENTS.md L1 row for row: the 15
// cache-sensitive profiles at the serving geometry, LRU vs RWP with one
// sampled predictor per 8 sets. RWP never loses a profile; the geomean
// over the 12 profiles where LRU holds any read hits at all is 1.106.
func TestRWPReadHitTable(t *testing.T) {
	if testing.Short() {
		t.Skip("12 M cache ops, ~12 s; TestRWPReadHitsSmall covers -short")
	}
	rows := []hitRow{
		{"GemsFDTD", "0.00", "1.56", ""},
		{"astar", "43.19", "46.71", "1.081"},
		{"bzip2", "41.43", "43.70", "1.055"},
		{"cactusADM", "58.35", "59.41", "1.018"},
		{"dealII", "40.26", "57.12", "1.419"},
		{"gcc", "66.74", "76.62", "1.148"},
		{"leslie3d", "0.00", "7.10", ""},
		{"mcf", "45.64", "53.87", "1.180"},
		{"omnetpp", "39.05", "43.17", "1.106"},
		{"perlbench", "92.88", "95.34", "1.027"},
		{"soplex", "28.86", "29.30", "1.015"},
		{"sphinx3", "70.36", "70.82", "1.007"},
		{"wrf", "61.85", "67.74", "1.095"},
		{"xalancbmk", "43.46", "51.56", "1.186"},
		{"zeusmp", "0.06", "8.44", ""},
	}
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.profile
	}
	if want := workload.SensitiveNames(); !slices.Equal(names, want) {
		t.Fatalf("pinned profiles %v are not the cache-sensitive set %v", names, want)
	}
	checkHitTable(t, hitGeometry{sets: 1024, ways: 16, warm: 200_000, measure: 400_000}, rows, "1.106")
}
