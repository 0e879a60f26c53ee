package opt

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"simcal/internal/core"
)

var optSpace = core.Space{
	{Name: "x", Kind: core.Continuous, Min: -5, Max: 5},
	{Name: "y", Kind: core.Continuous, Min: -5, Max: 5},
}

// rosenbrockish is a mildly hard smooth objective with minimum 0 at (1,1).
func rosenbrockish(_ context.Context, p core.Point) (float64, error) {
	x, y := p["x"], p["y"]
	return (1-x)*(1-x) + 5*(y-x*x)*(y-x*x), nil
}

// sphere has its minimum 0 at (2, -3).
func sphere(_ context.Context, p core.Point) (float64, error) {
	dx, dy := p["x"]-2, p["y"]+3
	return dx*dx + dy*dy, nil
}

func calibrate(t *testing.T, alg core.Algorithm, sim core.Evaluator, evals int, seed int64) *core.Result {
	t.Helper()
	c := &core.Calibrator{
		Space:          optSpace,
		Simulator:      sim,
		Algorithm:      alg,
		MaxEvaluations: evals,
		Workers:        4,
		Seed:           seed,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res
}

func TestAllAlgorithmsRespectEvaluationBudget(t *testing.T) {
	algs := []core.Algorithm{Random{}, Grid{}, GradientDescent{}, NewBOGP(), NewBORF(), NewBOET(), NewBOGBRT()}
	for _, alg := range algs {
		res := calibrate(t, alg, sphere, 60, 1)
		if res.Evaluations != 60 {
			t.Errorf("%s: used %d evaluations, want exactly 60", alg.Name(), res.Evaluations)
		}
	}
}

func TestRandomFindsSphereMinimum(t *testing.T) {
	res := calibrate(t, Random{}, sphere, 500, 2)
	if res.Best.Loss > 0.5 {
		t.Errorf("RAND best loss = %v, want < 0.5", res.Best.Loss)
	}
}

func TestGridFindsSphereMinimum(t *testing.T) {
	res := calibrate(t, Grid{}, sphere, 300, 3)
	// A 17-point-per-dim grid has spacing 0.625 → worst-case distance
	// ~0.44 in (x,y) → loss ≤ ~0.2. Allow slack.
	if res.Best.Loss > 1.0 {
		t.Errorf("GRID best loss = %v, want < 1.0", res.Best.Loss)
	}
}

func TestGridDoesNotRepeatPoints(t *testing.T) {
	res := calibrate(t, Grid{}, sphere, 200, 4)
	seen := make(map[string]bool)
	for _, s := range res.History {
		k := fingerprint(s.Unit)
		if seen[k] {
			t.Fatal("GRID evaluated the same lattice point twice")
		}
		seen[k] = true
	}
}

func TestGradientDescentConverges(t *testing.T) {
	res := calibrate(t, GradientDescent{}, sphere, 400, 5)
	if res.Best.Loss > 0.05 {
		t.Errorf("GRAD best loss = %v, want < 0.05 on a convex bowl", res.Best.Loss)
	}
}

func TestBOGPBeatsRandomOnSmoothObjective(t *testing.T) {
	const evals = 120
	var boLoss, randLoss float64
	for seed := int64(0); seed < 3; seed++ {
		bo := calibrate(t, NewBOGP(), rosenbrockish, evals, seed)
		rd := calibrate(t, Random{}, rosenbrockish, evals, seed)
		boLoss += bo.Best.Loss
		randLoss += rd.Best.Loss
	}
	if boLoss >= randLoss {
		t.Errorf("BO-GP (%.4f) should beat RAND (%.4f) on smooth objective at equal budget", boLoss/3, randLoss/3)
	}
}

func TestBOVariantsAllImproveOverInit(t *testing.T) {
	for _, mk := range []func() *BayesOpt{NewBOGP, NewBORF, NewBOET, NewBOGBRT} {
		alg := mk()
		res := calibrate(t, alg, rosenbrockish, 100, 7)
		// Initial design is random; BO must improve beyond the best of
		// the first InitSamples evaluations most of the time.
		init := res.History[:8]
		bestInit := math.Inf(1)
		for _, s := range init {
			if s.Loss < bestInit {
				bestInit = s.Loss
			}
		}
		if res.Best.Loss > bestInit {
			t.Errorf("%s: final best %v worse than init best %v", alg.Name(), res.Best.Loss, bestInit)
		}
	}
}

func TestBOHandlesFailingSimulator(t *testing.T) {
	// Half the space returns +Inf (simulated crash); BO must still make
	// progress in the feasible half.
	sim := core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
		if p["x"] < 0 {
			return math.Inf(1), nil
		}
		dx, dy := p["x"]-2, p["y"]+3
		return dx*dx + dy*dy, nil
	})
	res := calibrate(t, NewBOGP(), sim, 150, 8)
	if math.IsInf(res.Best.Loss, 1) {
		t.Fatal("BO-GP found nothing finite")
	}
	if res.Best.Loss > 1.0 {
		t.Errorf("BO-GP best loss = %v with failing region, want < 1.0", res.Best.Loss)
	}
}

func TestAlgorithmNames(t *testing.T) {
	cases := map[string]core.Algorithm{
		"RAND":    Random{},
		"GRID":    Grid{},
		"GRAD":    GradientDescent{},
		"BO-GP":   NewBOGP(),
		"BO-RF":   NewBORF(),
		"BO-ET":   NewBOET(),
		"BO-GBRT": NewBOGBRT(),
	}
	for want, alg := range cases {
		if alg.Name() != want {
			t.Errorf("Name() = %q, want %q", alg.Name(), want)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	for _, alg := range []core.Algorithm{Random{}, NewBOGP(), GradientDescent{}} {
		a := calibrate(t, alg, sphere, 80, 11)
		b := calibrate(t, alg, sphere, 80, 11)
		if a.Best.Loss != b.Best.Loss {
			t.Errorf("%s: nondeterministic across identical runs: %v vs %v", alg.Name(), a.Best.Loss, b.Best.Loss)
		}
	}
}

func TestExpectedImprovement(t *testing.T) {
	// Far-better predicted mean with no uncertainty → EI ≈ improvement.
	if ei := expectedImprovement(10, 5, 0, 0.01); math.Abs(ei-4.99) > 1e-9 {
		t.Errorf("EI deterministic = %v, want 4.99", ei)
	}
	// Worse mean with no uncertainty → 0.
	if ei := expectedImprovement(10, 15, 0, 0.01); ei != 0 {
		t.Errorf("EI of worse deterministic point = %v, want 0", ei)
	}
	// Uncertainty buys exploration: worse mean but huge std → positive EI.
	if ei := expectedImprovement(10, 15, 20, 0.01); ei <= 0 {
		t.Errorf("EI with high std = %v, want > 0", ei)
	}
	// EI grows with std at fixed mean.
	lo := expectedImprovement(10, 9, 0.1, 0.01)
	hi := expectedImprovement(10, 9, 5, 0.01)
	if hi <= lo {
		t.Errorf("EI should grow with std: %v vs %v", lo, hi)
	}
}

func TestStdNormHelpers(t *testing.T) {
	if math.Abs(stdNormCDF(0)-0.5) > 1e-12 {
		t.Error("Φ(0) != 0.5")
	}
	if math.Abs(stdNormPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Error("φ(0) wrong")
	}
	if stdNormCDF(10) < 0.999999 || stdNormCDF(-10) > 1e-6 {
		t.Error("Φ tails wrong")
	}
}

func TestGridFingerprintDistinguishesPoints(t *testing.T) {
	a := fingerprint([]float64{0.5, 0.25})
	b := fingerprint([]float64{0.25, 0.5})
	if a == b {
		t.Error("fingerprint collision for permuted coordinates")
	}
	if fingerprint([]float64{0.5, 0.25}) != a {
		t.Error("fingerprint not stable")
	}
}

// TestBOSubsamplesLargeHistory exercises the surrogate training-set cap:
// with a tiny MaxFitPoints the optimizer must keep working and keep the
// best points in the fit.
func TestBOSubsamplesLargeHistory(t *testing.T) {
	alg := NewBOGP()
	alg.MaxFitPoints = 20
	res := calibrate(t, alg, sphere, 150, 13)
	if res.Best.Loss > 1.0 {
		t.Errorf("best loss with capped fit = %v, want reasonable progress", res.Best.Loss)
	}
}

// TestBOAllInfiniteFallsBackToRandom: if every early evaluation fails,
// BO must keep sampling rather than aborting.
func TestBOAllInfiniteFallsBackToRandom(t *testing.T) {
	var calls atomic.Int64 // evaluators run concurrently across workers
	sim := core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
		if calls.Add(1) <= 30 {
			return math.Inf(1), nil
		}
		return p["x"] * p["x"], nil
	})
	res := calibrate(t, NewBOGP(), sim, 60, 14)
	if math.IsInf(res.Best.Loss, 1) {
		t.Error("BO never found the feasible region after infinite start")
	}
}
