package surrogate

import (
	"math"
	"testing"

	"simcal/internal/stats"
)

// trainOn generates n samples of fn over [0,1]^d.
func trainOn(n, d int, seed int64, fn func([]float64) float64) ([][]float64, []float64) {
	rng := stats.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = fn(row)
	}
	return X, y
}

func quadratic(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		d := v - 0.5
		s += d * d
	}
	return s
}

// namedRegressor is a regressor with the name test messages call it by.
type namedRegressor struct {
	name string
	Regressor
}

func allRegressors() []namedRegressor {
	return []namedRegressor{{"GP", NewGP()}, {"RF", NewRandomForest(1)}, {"ET", NewExtraTrees(2)}, {"GBRT", NewGBRT(3)}}
}

func TestRegressorsFitAndPredictSmooth(t *testing.T) {
	X, y := trainOn(120, 2, 11, quadratic)
	for _, r := range allRegressors() {
		if err := r.Fit(X, y); err != nil {
			t.Fatalf("%s: Fit: %v", r.name, err)
		}
		// Check generalization at fresh points.
		testX, testY := trainOn(40, 2, 99, quadratic)
		sse, tot := 0.0, 0.0
		mean := stats.Mean(testY)
		for i, x := range testX {
			m, _ := r.Predict(x)
			sse += (m - testY[i]) * (m - testY[i])
			tot += (testY[i] - mean) * (testY[i] - mean)
		}
		r2 := 1 - sse/tot
		if r2 < 0.5 {
			t.Errorf("%s: R² = %.3f on quadratic, want > 0.5", r.name, r2)
		}
	}
}

func TestRegressorsUncertaintyNonNegative(t *testing.T) {
	X, y := trainOn(60, 3, 21, quadratic)
	rng := stats.NewRNG(5)
	for _, r := range allRegressors() {
		if err := r.Fit(X, y); err != nil {
			t.Fatalf("%s: Fit: %v", r.name, err)
		}
		for i := 0; i < 50; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			m, s := r.Predict(x)
			if math.IsNaN(m) || math.IsNaN(s) {
				t.Fatalf("%s: NaN prediction", r.name)
			}
			if s < 0 {
				t.Fatalf("%s: negative std %v", r.name, s)
			}
		}
	}
}

func TestGPInterpolatesTrainingPoints(t *testing.T) {
	X, y := trainOn(40, 2, 31, quadratic)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		m, s := g.Predict(x)
		if math.Abs(m-y[i]) > 0.05*(1+math.Abs(y[i])) {
			t.Errorf("GP far from training target at %d: %v vs %v", i, m, y[i])
		}
		if s > 0.2 {
			t.Errorf("GP uncertain at training point: std=%v", s)
		}
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	// Train only in the left half of the cube.
	rng := stats.NewRNG(41)
	var X [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x := []float64{rng.Uniform(0, 0.3), rng.Uniform(0, 0.3)}
		X = append(X, x)
		y = append(y, quadratic(x))
	}
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	_, nearStd := g.Predict([]float64{0.15, 0.15})
	_, farStd := g.Predict([]float64{0.95, 0.95})
	if farStd <= nearStd {
		t.Errorf("GP std should grow away from data: near=%v far=%v", nearStd, farStd)
	}
}

func TestGPLengthScaleSelection(t *testing.T) {
	X, y := trainOn(60, 1, 51, func(x []float64) float64 { return math.Sin(12 * x[0]) })
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// A rapidly oscillating target needs a short length scale.
	if g.LengthScale() > 0.5 {
		t.Errorf("length scale = %v, want short for sin(12x)", g.LengthScale())
	}
}

func TestGPConstantTargets(t *testing.T) {
	X, _ := trainOn(20, 2, 61, quadratic)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = 7
	}
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	m, _ := g.Predict([]float64{0.5, 0.5})
	if math.Abs(m-7) > 0.1 {
		t.Errorf("constant-target prediction = %v, want ~7", m)
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	X, y := trainOn(80, 2, 71, quadratic)
	a, b := NewRandomForest(9), NewRandomForest(9)
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) / 20, 1 - float64(i)/20}
		ma, _ := a.Predict(x)
		mb, _ := b.Predict(x)
		if ma != mb {
			t.Fatal("same seed, different forest predictions")
		}
	}
}

func TestGBRTQuantileOrdering(t *testing.T) {
	// Noisy target: quantile predictions should be ordered q16 ≤ q50 ≤ q84
	// in the bulk of the space (up to boosting error at a few points).
	rng := stats.NewRNG(81)
	X, y := trainOn(200, 2, 81, func(x []float64) float64 {
		return quadratic(x) + rng.Normal(0, 0.05)
	})
	g := NewGBRT(4)
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	bad := 0
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		q16 := g.models[0].predict(x)
		q84 := g.models[2].predict(x)
		if q16 > q84+1e-9 {
			bad++
		}
	}
	if bad > 10 {
		t.Errorf("quantile crossing at %d/100 points", bad)
	}
}

func TestFitRejectsBadData(t *testing.T) {
	for _, r := range allRegressors() {
		if err := r.Fit(nil, nil); err == nil {
			t.Errorf("%s: empty fit accepted", r.name)
		}
		if err := r.Fit([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
			t.Errorf("%s: mismatched fit accepted", r.name)
		}
		if err := r.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
			t.Errorf("%s: ragged fit accepted", r.name)
		}
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	for _, r := range allRegressors() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Predict before Fit did not panic", r.name)
				}
			}()
			r.Predict([]float64{0.5})
		}()
	}
}

func TestMatern52Properties(t *testing.T) {
	if matern52(0, 0.5) != 1 {
		t.Error("kernel at distance 0 must be 1")
	}
	prev := 1.0
	for _, r := range []float64{0.1, 0.5, 1, 2, 5} {
		v := matern52(r, 0.5)
		if v >= prev {
			t.Error("kernel must decrease with distance")
		}
		if v < 0 {
			t.Error("kernel must be non-negative")
		}
		prev = v
	}
}

func TestForestHandlesTinyData(t *testing.T) {
	X := [][]float64{{0.1, 0.1}, {0.9, 0.9}}
	y := []float64{1, 2}
	for _, r := range allRegressors() {
		if err := r.Fit(X, y); err != nil {
			t.Errorf("%s: failed on 2-point data: %v", r.name, err)
			continue
		}
		m, _ := r.Predict([]float64{0.5, 0.5})
		if math.IsNaN(m) {
			t.Errorf("%s: NaN on tiny data", r.name)
		}
	}
}
