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
// cache-sensitive profiles at the serving geometry, per-set LRU vs
// per-set RWP. RWP never loses a profile; the geomean over the 12
// profiles where LRU holds any read hits at all is 1.105.
func TestRWPReadHitTable(t *testing.T) {
	if testing.Short() {
		t.Skip("12 M cache ops, ~12 s; TestRWPReadHitsSmall covers -short")
	}
	rows := []hitRow{
		{"GemsFDTD", "0.00", "1.81", ""},
		{"astar", "43.19", "46.46", "1.076"},
		{"bzip2", "41.43", "43.88", "1.059"},
		{"cactusADM", "58.35", "59.91", "1.027"},
		{"dealII", "40.26", "56.22", "1.396"},
		{"gcc", "66.74", "76.40", "1.145"},
		{"leslie3d", "0.00", "8.51", ""},
		{"mcf", "45.64", "53.16", "1.165"},
		{"omnetpp", "39.05", "43.60", "1.116"},
		{"perlbench", "92.88", "95.44", "1.028"},
		{"soplex", "28.86", "29.95", "1.038"},
		{"sphinx3", "70.36", "70.65", "1.004"},
		{"wrf", "61.85", "66.76", "1.079"},
		{"xalancbmk", "43.46", "51.07", "1.175"},
		{"zeusmp", "0.06", "8.54", ""},
	}
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.profile
	}
	if want := workload.SensitiveNames(); !slices.Equal(names, want) {
		t.Fatalf("pinned profiles %v are not the cache-sensitive set %v", names, want)
	}
	checkHitTable(t, hitGeometry{sets: 1024, ways: 16, warm: 200_000, measure: 400_000}, rows, "1.105")
}
