package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns vs in ascending order without disturbing vs.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of vs (the mean of the two middles for an
// even count).
func median(vs []float64) float64 { return percentile(sortedCopy(vs), 50) }

// iqrShare returns the distance between the first and third quartile
// of vs as a share of their median: the spread figure the benchmark
// reports for its own rounds.
func iqrShare(vs []float64) float64 {
	s := sortedCopy(vs)
	m := percentile(s, 50)
	if m <= 0 {
		return 0
	}
	return (percentile(s, 75) - percentile(s, 25)) / m
}

// sameBits reports whether a and b are the same float64, bit for bit:
// the comparison for metrics that are pure functions of (code, seed).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// geomean returns the geometric mean of vs (all positive).
func geomean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
