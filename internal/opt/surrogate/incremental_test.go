package surrogate

import (
	"math"
	"testing"

	"simcal/internal/la"
)

// predictSerial scores X with one Predict call per row — the reference
// the batched path must reproduce bit for bit.
func predictSerial(r Regressor, X [][]float64) (mean, std []float64) {
	mean = make([]float64, len(X))
	std = make([]float64, len(X))
	for i, x := range X {
		mean[i], std[i] = r.Predict(x)
	}
	return mean, std
}

// TestPredictBatchBitwiseMatchesSerial: for every regressor and several
// worker counts, PredictBatch must be bitwise identical to the serial
// Predict loop — the contract that keeps parallel acquisition scoring
// reproducible.
func TestPredictBatchBitwiseMatchesSerial(t *testing.T) {
	X, y := trainOn(150, 3, 7, quadratic)
	cands, _ := trainOn(333, 3, 8, quadratic) // non-multiple of the chunk size
	for _, workers := range []int{0, 1, 3, 8} {
		gp := NewGP()
		gp.PredictWorkers = workers
		rf := NewRandomForest(1)
		rf.PredictWorkers = workers
		et := NewExtraTrees(2)
		et.PredictWorkers = workers
		gb := NewGBRT(3)
		gb.PredictWorkers = workers
		for _, r := range []Regressor{gp, rf, et, gb} {
			if err := r.Fit(X, y); err != nil {
				t.Fatalf("%s: Fit: %v", r.Name(), err)
			}
			wantMean, wantStd := predictSerial(r, cands)
			gotMean := make([]float64, len(cands))
			gotStd := make([]float64, len(cands))
			r.PredictBatch(cands, gotMean, gotStd)
			for i := range cands {
				if gotMean[i] != wantMean[i] || gotStd[i] != wantStd[i] {
					t.Fatalf("%s workers=%d cand %d: batch (%v, %v) != serial (%v, %v)",
						r.Name(), workers, i, gotMean[i], gotStd[i], wantMean[i], wantStd[i])
				}
			}
		}
	}
}

func TestPredictBatchLengthMismatchPanics(t *testing.T) {
	X, y := trainOn(20, 2, 1, quadratic)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short output slice")
		}
	}()
	g.PredictBatch(X, make([]float64, len(X)-1), make([]float64, len(X)))
}

// TestGPConcurrentScaleSelectionDeterministic: the fitted model must not
// depend on how many goroutines evaluated the length-scale grid.
func TestGPConcurrentScaleSelectionDeterministic(t *testing.T) {
	X, y := trainOn(80, 4, 21, quadratic)
	cands, _ := trainOn(64, 4, 22, quadratic)
	serial := NewGP()
	serial.FitWorkers = 1
	if err := serial.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	wantMean, wantStd := predictSerial(serial, cands)
	for _, workers := range []int{0, 2, 8} {
		g := NewGP()
		g.FitWorkers = workers
		if err := g.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if g.LengthScale() != serial.LengthScale() {
			t.Fatalf("workers=%d: scale %v != serial %v", workers, g.LengthScale(), serial.LengthScale())
		}
		for i, c := range cands {
			m, s := g.Predict(c)
			if m != wantMean[i] || s != wantStd[i] {
				t.Fatalf("workers=%d cand %d: (%v, %v) != serial (%v, %v)", workers, i, m, s, wantMean[i], wantStd[i])
			}
		}
	}
}

// TestGPIncrementalFitBitwiseMatchesCold: refitting a warm GP on a
// training set that extends the previous one must produce exactly the
// model a cold GP produces on the full set — scale, alpha, factor, and
// predictions all bitwise identical. This is what makes the incremental
// optimization invisible to checkpoint replay.
func TestGPIncrementalFitBitwiseMatchesCold(t *testing.T) {
	X, y := trainOn(120, 5, 31, quadratic)
	cands, _ := trainOn(100, 5, 32, quadratic)

	warm := NewGP()
	// Grow the training set in uneven steps, refitting the same instance.
	for _, n := range []int{40, 44, 90, 120} {
		if err := warm.Fit(X[:n], y[:n]); err != nil {
			t.Fatalf("warm fit n=%d: %v", n, err)
		}
	}
	st := warm.FitStats()
	if !st.Incremental || st.PrefixReused != 90 {
		t.Fatalf("warm fit stats = %+v, want Incremental with PrefixReused=90", st)
	}
	if st.BufferAllocs == 0 {
		t.Fatalf("growing refit should report buffer allocations, got %+v", st)
	}

	cold := NewGP()
	if err := cold.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if warm.LengthScale() != cold.LengthScale() {
		t.Fatalf("warm scale %v != cold %v", warm.LengthScale(), cold.LengthScale())
	}
	for i := range warm.alpha {
		if warm.alpha[i] != cold.alpha[i] {
			t.Fatalf("alpha[%d]: warm %v != cold %v", i, warm.alpha[i], cold.alpha[i])
		}
	}
	for i := 0; i < len(X); i++ {
		wr, cr := warm.chol.RawRow(i)[:i+1], cold.chol.RawRow(i)[:i+1]
		for j := range wr {
			if wr[j] != cr[j] {
				t.Fatalf("chol[%d][%d]: warm %v != cold %v", i, j, wr[j], cr[j])
			}
		}
	}
	for i, c := range cands {
		wm, ws := warm.Predict(c)
		cm, cs := cold.Predict(c)
		if wm != cm || ws != cs {
			t.Fatalf("cand %d: warm (%v, %v) != cold (%v, %v)", i, wm, ws, cm, cs)
		}
	}
}

// TestGPSteadyStateRefitReusesBuffers: once n stops growing (BO's
// MaxFitPoints steady state), ping-pong buffers make refits
// allocation-free.
func TestGPSteadyStateRefitReusesBuffers(t *testing.T) {
	X, y := trainOn(60, 3, 41, quadratic)
	g := NewGP()
	for i := 0; i < 3; i++ {
		if err := g.Fit(X[:50], y[:50]); err != nil {
			t.Fatal(err)
		}
	}
	if st := g.FitStats(); st.BufferAllocs != 0 {
		t.Fatalf("steady-state refit allocated %d buffers, want 0", st.BufferAllocs)
	}
}

// TestGPJitterAppliedUniformly: a near-singular design (100 points on a
// line, negligible noise, one very smooth length-scale candidate) makes
// scale 10 fail to factorize at zero jitter while scale 0.1 succeeds.
// The fix under test: instead of comparing scale 0.1 at jitter 0 with
// scale 10 at jitter 1e-6 (different diagonals, incomparable LMLs), the
// whole grid is refit at the larger jitter and the chosen level is
// reported.
func TestGPJitterAppliedUniformly(t *testing.T) {
	X, y := trainOn(100, 1, 51, quadratic)
	g := NewGP()
	g.Noise = 1e-15
	g.LengthScales = []float64{0.1, 10}
	if err := g.Fit(X, y); err != nil {
		t.Fatalf("Fit on near-singular design: %v", err)
	}
	st := g.FitStats()
	if st.CholeskyRetries != 1 {
		t.Fatalf("CholeskyRetries = %d, want 1 (scale 10 must fail at jitter 0): %+v", st.CholeskyRetries, st)
	}
	if st.Jitter != 1e-6 {
		t.Fatalf("Jitter = %v, want 1e-6 (the ladder's next rung)", st.Jitter)
	}
	// The model must still be usable.
	m, s := g.Predict(X[0])
	if math.IsNaN(m) || math.IsNaN(s) {
		t.Fatalf("Predict after jitter fit: (%v, %v)", m, s)
	}

	// A grid that factors cleanly must not escalate.
	clean := NewGP()
	clean.Noise = 1e-15
	clean.LengthScales = []float64{0.1}
	if err := clean.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if st := clean.FitStats(); st.CholeskyRetries != 0 || st.Jitter != 0 {
		t.Fatalf("clean grid escalated jitter: %+v", st)
	}
}

// TestGPFailedFitInvalidates: a fit that cannot factorize at any jitter
// rung must clear the model and not poison later incremental fits.
func TestGPFailedFitInvalidates(t *testing.T) {
	X, y := trainOn(40, 3, 61, quadratic)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// NaN distances make every kernel matrix unfactorizable.
	bad := [][]float64{{math.NaN(), 0, 0}, {0, math.NaN(), 0}, {0, 0, math.NaN()}}
	if err := g.Fit(bad, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error fitting NaN design")
	} else if err != la.ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	// Recover with a clean fit; results must match a cold GP bitwise.
	if err := g.Fit(X, y); err != nil {
		t.Fatalf("refit after failure: %v", err)
	}
	cold := NewGP()
	if err := cold.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		gm, gs := g.Predict(x)
		cm, cs := cold.Predict(x)
		if gm != cm || gs != cs {
			t.Fatalf("point %d after recovery: (%v, %v) != cold (%v, %v)", i, gm, gs, cm, cs)
		}
	}
}

// TestGPPredictBatchTilesBitwiseMatchPredict: pool sizes on both sides
// of the tile and chunk widths, at every worker count and at training
// sizes below, at and far above the tile width, must reproduce
// per-candidate Predict bit for bit — tiles and chunk remainders alike.
func TestGPPredictBatchTilesBitwiseMatchPredict(t *testing.T) {
	pool, _ := trainOn(519, 4, 62, quadratic)
	for _, n := range []int{3, 8, 400} {
		X, y := trainOn(n, 4, 61, quadratic)
		g := NewGP()
		if err := g.Fit(X, y); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantMean, wantStd := predictSerial(g, pool)
		for _, size := range []int{1, 7, 8, 9, 63, 64, 65, 512, 519} {
			for _, workers := range []int{1, 2, 3} {
				g.PredictWorkers = workers
				mean, std := make([]float64, size), make([]float64, size)
				g.PredictBatch(pool[:size], mean, std)
				for i := range mean {
					if math.Float64bits(mean[i]) != math.Float64bits(wantMean[i]) ||
						math.Float64bits(std[i]) != math.Float64bits(wantStd[i]) {
						t.Fatalf("n=%d size=%d workers=%d cand %d: batch (%v, %v) != Predict (%v, %v)",
							n, size, workers, i, mean[i], std[i], wantMean[i], wantStd[i])
					}
				}
			}
		}
	}
}

// TestGPPredictBatchSolveFailureFallsBack: a zero on the factor's
// diagonal fails the triangular solve; the variance then falls back to
// 1 (std = the target scale) while the mean is still the model's, for
// tiled candidates and remainder candidates alike, as in Predict.
func TestGPPredictBatchSolveFailureFallsBack(t *testing.T) {
	X, y := trainOn(30, 3, 63, quadratic)
	pool, _ := trainOn(21, 3, 64, quadratic) // two tiles and a remainder of five
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	g.chol.Set(17, 17, 0)
	wantMean, wantStd := predictSerial(g, pool)
	mean, std := make([]float64, len(pool)), make([]float64, len(pool))
	g.PredictBatch(pool, mean, std)
	for i := range pool {
		if std[i] != g.yStd {
			t.Errorf("cand %d: std %v after a failed solve, want the unit-variance fallback %v", i, std[i], g.yStd)
		}
		if math.Float64bits(mean[i]) != math.Float64bits(wantMean[i]) || math.Float64bits(std[i]) != math.Float64bits(wantStd[i]) {
			t.Errorf("cand %d: batch (%v, %v) != Predict (%v, %v)", i, mean[i], std[i], wantMean[i], wantStd[i])
		}
	}
}

// gpGrowthBufferAllocCeiling bounds FitStats.BufferAllocs summed over a
// run whose training set grows from 8 to 400 rows by 4 while wobbling
// ±3 rows around each size, the way async-bo's fantasy rows move n on
// every proposal. Ten n×n buffers (two distance matrices, two factors
// per length scale) each double their backing array nine or ten times
// on the way to 403² cells: measured 95 over the 297 fits. A fresh
// matrix per written buffer per size change, the behaviour this
// replaces, measured 1 485.
const gpGrowthBufferAllocCeiling = 110

// TestGPGrowingFitBufferAllocsBounded is a count gate (CI bench-smoke):
// n×n backing arrays grow geometrically, so a run that keeps changing n
// allocates O(log n) of them, not one set per fit.
func TestGPGrowingFitBufferAllocsBounded(t *testing.T) {
	X, y := trainOn(403, 3, 65, quadratic)
	g := NewGP()
	total, fits := 0, 0
	for n := 8; n <= 400; n += 4 {
		for _, m := range []int{n, n + 3, n - 3} {
			if err := g.Fit(X[:m], y[:m]); err != nil {
				t.Fatalf("n=%d: %v", m, err)
			}
			total += g.FitStats().BufferAllocs
			fits++
		}
	}
	if total > gpGrowthBufferAllocCeiling {
		t.Errorf("%d buffer allocations over %d fits, ceiling %d", total, fits, gpGrowthBufferAllocCeiling)
	}
	t.Logf("%d buffer allocations over %d fits", total, fits)
}
