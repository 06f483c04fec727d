package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeans(t *testing.T) {
	xs := []float64{1, 2, 4}
	if !almost(AMean(xs), 7.0/3) {
		t.Errorf("AMean = %v", AMean(xs))
	}
	if !almost(GeoMean(xs), 2) {
		t.Errorf("GeoMean = %v", GeoMean(xs))
	}
	if !almost(HMean(xs), 3/(1+0.5+0.25)) {
		t.Errorf("HMean = %v", HMean(xs))
	}
}

// TestEmptyMeans pins the documented sentinel: every mean returns
// exactly EmptyMean for both nil and zero-length slices.
func TestEmptyMeans(t *testing.T) {
	for _, m := range []struct {
		name string
		mean func([]float64) float64
	}{{"AMean", AMean}, {"GeoMean", GeoMean}, {"HMean", HMean}} {
		name, mean := m.name, m.mean
		for _, xs := range [][]float64{nil, {}} {
			if got := mean(xs); got != EmptyMean {
				t.Errorf("%s(%v) = %v, want EmptyMean (%v)", name, xs, got, EmptyMean)
			}
		}
	}
}

func TestMeanInequality(t *testing.T) {
	// Property: HMean <= GeoMean <= AMean for positive inputs.
	f := func(raw [5]uint16) bool {
		xs := make([]float64, 5)
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
		}
		h, g, a := HMean(xs), GeoMean(xs), AMean(xs)
		return h <= g+1e-9 && g <= a+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	for _, x := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GeoMean of %v: no panic", x)
				}
			}()
			GeoMean([]float64{1, x})
		}()
	}
}

func TestSpeedup(t *testing.T) {
	if !almost(Speedup(1.05, 1.0), 1.05) {
		t.Error("Speedup wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero base accepted")
		}
	}()
	Speedup(1, 0)
}

func TestPerKilo(t *testing.T) {
	if !almost(PerKilo(5, 1000), 5) {
		t.Errorf("PerKilo = %v", PerKilo(5, 1000))
	}
	if PerKilo(5, 0) != 0 {
		t.Error("PerKilo with zero instructions must be 0")
	}
	// A long campaign's counters pass 2^32; none of it may be dropped.
	if got := PerKilo(1<<32+5, 1000); got != 1<<32+5 {
		t.Errorf("PerKilo(2^32+5, 1000) = %v", got)
	}
}

func TestMultiprogramMetrics(t *testing.T) {
	shared := []float64{0.5, 1.0}
	alone := []float64{1.0, 1.0}
	if !almost(Throughput(shared), 1.5) {
		t.Error("Throughput wrong")
	}
	if !almost(WeightedSpeedup(shared, alone), 1.5) {
		t.Error("WeightedSpeedup wrong")
	}
	// Harmonic of 0.5 and 1.0 = 2/(2+1) = 2/3.
	if !almost(HarmonicSpeedup(shared, alone), 2.0/3) {
		t.Errorf("HarmonicSpeedup = %v", HarmonicSpeedup(shared, alone))
	}
}

func TestWeightedSpeedupMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	WeightedSpeedup([]float64{1}, []float64{1, 2})
}

func TestPercent(t *testing.T) {
	if got := Percent(1.05); got != "+5.0%" {
		t.Errorf("Percent(1.05) = %q", got)
	}
	if got := Percent(0.97); got != "-3.0%" {
		t.Errorf("Percent(0.97) = %q", got)
	}
}
