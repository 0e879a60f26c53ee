// Package stats provides the statistical utilities shared across the
// calibration framework and the case-study simulators: seeded random
// streams, distribution sampling, summary statistics, and the accuracy
// metrics used by the paper (relative error, relative L1 distance, and
// explained variance).
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// RNG is a seeded, reproducible random stream. It wraps math/rand with a
// fixed source so that every experiment in the repository is
// deterministic given its seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a new random stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a sample from N(mu, sigma²).
func (g *RNG) Normal(mu, sigma float64) float64 { return mu + sigma*g.r.NormFloat64() }

// LogNormal returns a sample from the log-normal distribution whose
// underlying normal has the given mu and sigma.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// NoisyScale returns a multiplicative noise factor with mean ~1 and the
// given relative spread, drawn from a log-normal distribution. A spread
// of 0 returns exactly 1.
func (g *RNG) NoisyScale(spread float64) float64 {
	if spread <= 0 {
		return 1
	}
	sigma := math.Log1p(spread)
	return g.LogNormal(-sigma*sigma/2, sigma)
}

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// PermInto writes a pseudo-random permutation of [0, len(p)) into p. It
// is math/rand's Perm loop over a caller-owned buffer: the same draws in
// the same order, so Perm(n) and PermInto on a length-n buffer leave
// the stream in the same state and p with the same contents, whatever p
// held before.
func (g *RNG) PermInto(p []int) {
	for i := range p {
		j := g.r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Fork returns a new independent stream derived from this one. Forked
// streams let concurrent components consume randomness without
// perturbing each other's sequences.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs. It panics on an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// RelError returns |truth − estimate| / |truth|. When truth is zero it
// falls back to the absolute error so that the metric stays finite.
func RelError(truth, estimate float64) float64 {
	d := math.Abs(truth - estimate)
	if truth == 0 {
		return d
	}
	return d / math.Abs(truth)
}

// RelL1 returns the relative L1 distance between two equal-length
// vectors: Σ_i |a_i − b_i| / max(|b_i|, eps), with b taken as the
// reference. This is the paper's "calibration error" metric (modulo the
// ×100 scaling applied by callers that report percentages).
func RelL1(a, b []float64, eps float64) float64 {
	if len(a) != len(b) {
		panic("stats: RelL1 length mismatch")
	}
	if eps <= 0 {
		eps = 1e-12
	}
	s := 0.0
	for i := range a {
		den := math.Abs(b[i])
		if den < eps {
			den = eps
		}
		s += math.Abs(a[i]-b[i]) / den
	}
	return s
}

// ExplainedVariance quantifies how representative a single model value is
// of a set of noisy measured samples, following the paper's definition:
// a/b where a is the L1 distance between the samples and the model value
// and b is the L1 distance between the samples and their mean. The closer
// to 1 (from above), the better the model value matches the samples; a
// perfect match of a noiseless sample set returns 0/0 → defined as 1.
func ExplainedVariance(samples []float64, model float64) float64 {
	if len(samples) == 0 {
		panic("stats: ExplainedVariance of empty sample set")
	}
	m := Mean(samples)
	a, b := 0.0, 0.0
	for _, s := range samples {
		a += math.Abs(s - model)
		b += math.Abs(s - m)
	}
	if b == 0 {
		if a == 0 {
			return 1
		}
		// Noise-free samples: report the distance scaled by the mean so
		// that the loss remains informative rather than infinite.
		den := math.Abs(m)
		if den == 0 {
			den = 1
		}
		return 1 + a/den
	}
	return a / b
}
