package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 20}, {50, 30}, {90, 46}, {100, 50}} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !near(got, 0) {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); !near(got, 7) {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	vs := []float64{5, 1, 4, 2}
	if got := median(vs); !near(got, 3) {
		t.Errorf("median = %v, want 3", got)
	}
	if !near(vs[0], 5) || !near(vs[3], 2) {
		t.Errorf("median reordered its input: %v", vs)
	}
	if got := median([]float64{9, 1, 5}); !near(got, 5) {
		t.Errorf("odd median = %v, want 5", got)
	}
}

func TestIQRShare(t *testing.T) {
	// Quartiles of 1..9 by interpolation are 3 and 7 around a median of 5.
	if got := iqrShare([]float64{9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 0.8) {
		t.Errorf("iqrShare = %v, want 0.8", got)
	}
	if got := iqrShare([]float64{0, 0, 0}); !near(got, 0) {
		t.Errorf("iqrShare around a zero median = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
}
