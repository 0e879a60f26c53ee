package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(1)
	f1 := a.Fork()
	f2 := a.Fork()
	if f1.Float64() == f2.Float64() && f1.Float64() == f2.Float64() && f1.Float64() == f2.Float64() {
		t.Error("forked streams look identical")
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(4)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = g.Normal(10, 2)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.1 {
		t.Errorf("mean = %v, want ~10", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.1 {
		t.Errorf("stddev = %v, want ~2", s)
	}
}

func TestNoisyScale(t *testing.T) {
	g := NewRNG(5)
	if g.NoisyScale(0) != 1 {
		t.Error("NoisyScale(0) must be exactly 1")
	}
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = g.NoisyScale(0.1)
	}
	if m := Mean(xs); math.Abs(m-1) > 0.02 {
		t.Errorf("mean of NoisyScale(0.1) = %v, want ~1", m)
	}
	for _, x := range xs {
		if x <= 0 {
			t.Fatal("NoisyScale produced non-positive factor")
		}
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Error("Mean wrong")
	}
	if Min(xs) != 1 || Max(xs) != 4 {
		t.Error("Min/Max wrong")
	}
	if Median(xs) != 2.5 {
		t.Error("Median of even-length wrong")
	}
	if Median([]float64{5, 1, 3}) != 3 {
		t.Error("Median of odd-length wrong")
	}
	if v := Variance([]float64{1, 1, 1}); v != 0 {
		t.Errorf("Variance of constants = %v, want 0", v)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice mean/variance should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 0}, {0.25, 1}, {0.5, 2}, {0.75, 3}, {1, 4}, {-0.5, 0}, {1.5, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestRelError(t *testing.T) {
	if RelError(10, 12) != 0.2 {
		t.Error("RelError(10,12) != 0.2")
	}
	if RelError(0, 3) != 3 {
		t.Error("RelError with zero truth should be absolute")
	}
	if RelError(5, 5) != 0 {
		t.Error("RelError of equal values should be 0")
	}
}

func TestRelL1(t *testing.T) {
	got := RelL1([]float64{2, 4}, []float64{1, 8}, 1e-12)
	want := 1.0 + 0.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RelL1 = %v, want %v", got, want)
	}
	if RelL1([]float64{1, 2}, []float64{1, 2}, 0) != 0 {
		t.Error("RelL1 of identical vectors should be 0")
	}
}

func TestExplainedVariance(t *testing.T) {
	samples := []float64{9, 10, 11}
	// Model exactly at the mean: a == b → 1.
	if ev := ExplainedVariance(samples, 10); math.Abs(ev-1) > 1e-12 {
		t.Errorf("EV at mean = %v, want 1", ev)
	}
	// Model far away: much larger than 1.
	if ev := ExplainedVariance(samples, 100); ev < 10 {
		t.Errorf("EV far away = %v, want large", ev)
	}
	// Noise-free samples matched exactly → 1.
	if ev := ExplainedVariance([]float64{5, 5, 5}, 5); ev != 1 {
		t.Errorf("EV of perfect noise-free match = %v, want 1", ev)
	}
	// Noise-free samples mismatched → finite and > 1.
	ev := ExplainedVariance([]float64{5, 5, 5}, 6)
	if math.IsInf(ev, 0) || ev <= 1 {
		t.Errorf("EV of imperfect noise-free match = %v, want finite > 1", ev)
	}
}

// Property: the model value minimizing the L1 distance to the samples is
// the median, so EV(median) <= EV(anything else).
func TestExplainedVarianceMedianOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		n := 3 + g.Intn(10)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = g.Uniform(1, 100)
		}
		med := Median(xs)
		best := ExplainedVariance(xs, med)
		for trial := 0; trial < 10; trial++ {
			other := g.Uniform(0, 200)
			if ExplainedVariance(xs, other) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: RelL1 is non-negative and zero iff vectors are equal.
func TestRelL1Property(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		n := 1 + g.Intn(8)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = g.Uniform(-10, 10)
			b[i] = g.Uniform(1, 10)
		}
		if RelL1(a, b, 1e-12) < 0 {
			return false
		}
		return RelL1(b, b, 1e-12) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPermShuffle(t *testing.T) {
	g := NewRNG(9)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
	xs := []int{0, 1, 2, 3, 4, 5}
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Error("Shuffle lost elements")
	}
}

// TestPermIntoMatchesPerm: PermInto over a dirty buffer yields Perm's
// permutation and leaves the stream where Perm leaves it.
func TestPermIntoMatchesPerm(t *testing.T) {
	a, b := NewRNG(21), NewRNG(21)
	buf := []int{9, 9, 9, 9, 9, 9, 9}
	for n := 0; n <= len(buf); n++ {
		want := a.Perm(n)
		b.PermInto(buf[:n])
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: PermInto %v, Perm %v", n, buf[:n], want)
			}
		}
	}
	if a.Int63() != b.Int63() {
		t.Error("PermInto consumed different draws than Perm")
	}
}

func TestInt63NonNegative(t *testing.T) {
	g := NewRNG(13)
	for i := 0; i < 100; i++ {
		if g.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	for i, fn := range []func(){func() { Min(nil) }, func() { Max(nil) }, func() { Median(nil) }, func() { Quantile(nil, 0.5) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on empty input", i)
				}
			}()
			fn()
		}()
	}
}
