// Package xrand provides the simulator's deterministic pseudo-random
// number generator. Every stochastic component (BIP/BRRIP insertion,
// workload generators) draws from its own seeded instance, so
// whole-simulation results are bit-reproducible and independent of
// evaluation order.
//
// The generator is xoshiro-style SplitMix64: tiny state, excellent
// statistical quality for simulation purposes, and trivially portable.
package xrand

// RNG is a deterministic 64-bit pseudo-random generator. The zero value
// is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits (SplitMix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Chance returns true with probability p (clamped to [0,1]).
func (r *RNG) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf draws from a Zipf-like distribution over [0, n) with exponent s,
// using inverse-CDF on a precomputed table. Use NewZipf for repeated
// draws.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s (> 0). Rank 0
// is the most popular element.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Next draws the next rank.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pow is a minimal positive-base power; avoids importing math for one call
// site in hot setup paths.
func pow(base, exp float64) float64 {
	// exp is typically in (0, 2]; use exp/log via the identity
	// base^exp = e^(exp*ln base), with a small series-free helper.
	return expf(exp * logf(base))
}

// logf computes natural log for positive x via atanh series on the
// mantissa (sufficient accuracy for distribution shaping).
func logf(x float64) float64 {
	if x <= 0 {
		panic("xrand: log of non-positive value")
	}
	// Range-reduce x into [1, 2) by powers of two.
	k := 0
	for x >= 2 {
		x /= 2
		k++
	}
	for x < 1 {
		x *= 2
		k--
	}
	// ln(x) = 2*atanh((x-1)/(x+1))
	y := (x - 1) / (x + 1)
	y2 := y * y
	term := y
	sum := 0.0
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= y2
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(k)*ln2
}

// expf computes e^x by range reduction and Taylor series.
func expf(x float64) float64 {
	neg := false
	if x < 0 {
		neg = true
		x = -x
	}
	// e^x = (e^(x/2^k))^(2^k) with x/2^k < 0.5
	k := 0
	for x > 0.5 {
		x /= 2
		k++
	}
	sum, term := 1.0, 1.0
	for i := 1; i < 20; i++ {
		term *= x / float64(i)
		sum += term
	}
	for i := 0; i < k; i++ {
		sum *= sum
	}
	if neg {
		return 1 / sum
	}
	return sum
}
