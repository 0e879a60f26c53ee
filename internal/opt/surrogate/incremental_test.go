package surrogate

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
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

// PredictBatch scores every row of X with both of r's passes, writing
// mean[i], std[i] for X[i].
func PredictBatch(r Regressor, X [][]float64, mean, std []float64) {
	r.PredictMean(X, mean, std)
	r.PredictStd(nil, std)
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
		for _, r := range []namedRegressor{{"GP", gp}, {"RF", rf}, {"ET", et}, {"GBRT", gb}} {
			if err := r.Fit(X, y); err != nil {
				t.Fatalf("%s: Fit: %v", r.name, err)
			}
			wantMean, wantStd := predictSerial(r, cands)
			gotMean := make([]float64, len(cands))
			gotStd := make([]float64, len(cands))
			PredictBatch(r, cands, gotMean, gotStd)
			for i := range cands {
				if gotMean[i] != wantMean[i] || gotStd[i] != wantStd[i] {
					t.Fatalf("%s workers=%d cand %d: batch (%v, %v) != serial (%v, %v)",
						r.name, workers, i, gotMean[i], gotStd[i], wantMean[i], wantStd[i])
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
	PredictBatch(g, X, make([]float64, len(X)-1), make([]float64, len(X)))
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

// mustGrow counts g's n×n buffers — the distance matrix and each length
// scale's factor — whose backing array holds fewer than n² values, so
// that a fit on n rows has to grow each of them whatever the growth
// factor, and returns past, the least n at which every one has to grow.
func mustGrow(g *GP, n int) (count, past int) {
	held := []*la.Matrix{g.dists}
	for i := range g.scaleState {
		held = append(held, g.scaleState[i].cur)
	}
	for _, m := range held {
		c := cap(m.RawRow(0))
		if c < n*n {
			count++
		}
		past = max(past, int(math.Sqrt(float64(c)))+1)
	}
	return count, past
}

// TestGPIncrementalFitBitwiseMatchesCold: refitting a warm GP on a
// training set that extends the previous one must produce exactly the
// model a cold GP produces on the full set — scale, alpha, factor, and
// predictions all bitwise identical. This is what makes the incremental
// optimization invisible to checkpoint replay.
func TestGPIncrementalFitBitwiseMatchesCold(t *testing.T) {
	X, y := trainOn(240, 5, 31, quadratic)
	cands, _ := trainOn(100, 5, 32, quadratic)

	warm := NewGP()
	// Grow the training set in uneven steps, refitting the same instance;
	// the last step grows past every buffer's capacity.
	for _, n := range []int{40, 44, 90} {
		if err := warm.Fit(X[:n], y[:n]); err != nil {
			t.Fatalf("warm fit n=%d: %v", n, err)
		}
	}
	_, last := mustGrow(warm, 0)
	if last > len(X) {
		t.Fatalf("setup: growing past the buffers takes %d rows, have %d", last, len(X))
	}
	X, y = X[:last], y[:last]
	if err := warm.Fit(X, y); err != nil {
		t.Fatalf("warm fit n=%d: %v", last, err)
	}
	st := warm.FitStats()
	if !st.Incremental || st.PrefixReused != 90 {
		t.Fatalf("warm fit stats = %+v, want Incremental with PrefixReused=90", st)
	}
	if want := 1 + len(warm.scaleState); st.BufferAllocs != want {
		t.Fatalf("refit past every buffer's capacity reports %d buffer allocations, want %d", st.BufferAllocs, want)
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
// MaxFitPoints steady state), refits run in the buffers the first fit
// grew, allocation-free.
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

// TestGPPredictBatchTilesBitwiseMatchPredict: every pool size from 1 to
// 140 — tile pairs, a single tile and remainders in first, full and
// partial chunks — and two large pools, at every worker count and at
// training sizes below, at and far above the tile width, must reproduce
// per-candidate Predict bit for bit. One GP per dimension is refit from
// size to size, so PredictBatch also runs on scratch a larger fit left
// behind. Four dimensions go through every training size; 1, 2, 7 (the
// MPI reference space's) and 10 through a smaller set, each with a
// different number of the packed fill's dimension steps.
func TestGPPredictBatchTilesBitwiseMatchPredict(t *testing.T) {
	sizes := []int{512, 519}
	for size := 1; size <= 140; size++ {
		sizes = append(sizes, size)
	}
	for _, d := range []int{4, 1, 2, 7, 10} {
		pool, _ := trainOn(519, d, 62, quadratic)
		fits := []int{3, 8, 65}
		if d == 4 {
			fits = []int{3, 8, 400, 30}
		}
		g := NewGP()
		for _, n := range fits {
			X, y := trainOn(n, d, 61, quadratic)
			if err := g.Fit(X, y); err != nil {
				t.Fatalf("d=%d n=%d: %v", d, n, err)
			}
			wantMean, wantStd := predictSerial(g, pool)
			for _, size := range sizes {
				for _, workers := range []int{1, 2, 3} {
					g.PredictWorkers = workers
					mean, std := make([]float64, size), make([]float64, size)
					PredictBatch(g, pool[:size], mean, std)
					for i := range mean {
						if math.Float64bits(mean[i]) != math.Float64bits(wantMean[i]) ||
							math.Float64bits(std[i]) != math.Float64bits(wantStd[i]) {
							t.Fatalf("d=%d n=%d size=%d workers=%d cand %d: batch (%v, %v) != Predict (%v, %v)",
								d, n, size, workers, i, mean[i], std[i], wantMean[i], wantStd[i])
						}
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
	PredictBatch(g, pool, mean, std)
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
// every proposal. Five n×n buffers (the distance matrix and one factor
// per length scale) each re-lay their rows 16 times on the way to 403
// rows, a quarter wider each time: measured 80 over the 297 fits. Two
// buffers per matrix, each doubling its backing array, measured 95; a
// fresh matrix per written buffer per size change measured 1 485.
const gpGrowthBufferAllocCeiling = 90

// TestGPGrowingFitBufferAllocsBounded is a count gate (CI bench-smoke):
// n×n backing arrays grow geometrically, so a run that keeps changing n
// allocates O(log n) of them, not one set per fit.
func TestGPGrowingFitBufferAllocsBounded(t *testing.T) {
	drainGPFree() // measure growth from empty, whatever ran before
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

// drainGPFree empties the free list of released GP buffers, so the next
// GP that fits grows a set of its own.
func drainGPFree() {
	gpFree.Lock()
	gpFree.sets = nil
	gpFree.Unlock()
}

// TestGPReleasedBuffersServeTheNextGP: Release hands a GP's buffers to
// the next GP that fits. That GP — on other sizes, other length scales
// and another dimension — grows no n×n buffer while n stays below the
// released GP's high-water mark, above it grows exactly the buffers too
// small for n² values (at the last step, past every buffer's capacity,
// all of them), and its factor, alpha and PredictBatch outputs carry
// the bits of a GP on buffers of its own. The collector
// is paused so that the free list's weak pointer survives the hand-off.
func TestGPReleasedBuffersServeTheNextGP(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drainGPFree()
	defer drainGPFree()

	X, y := trainOn(203, 3, 71, quadratic)
	pool, _ := trainOn(70, 3, 72, quadratic)
	first := NewGP()
	high := 0
	for n := 8; n <= 200; n += 6 {
		for _, m := range []int{n, n + 3, n - 2} {
			if err := first.Fit(X[:m], y[:m]); err != nil {
				t.Fatalf("first GP, n=%d: %v", m, err)
			}
			high = max(high, m)
		}
	}
	PredictBatch(first, pool, make([]float64, len(pool)), make([]float64, len(pool)))
	bufs := first.gpBuffers
	Release(first)
	Release(first)              // a second release has nothing to hand on
	Release(NewRandomForest(1)) // nor has a tree ensemble
	Release(nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a released GP predicted without a new Fit")
			}
		}()
		PredictBatch(first, pool[:1], make([]float64, 1), make([]float64, 1))
	}()

	X2, y2 := trainOn(540, 5, 73, quadratic)
	cands, _ := trainOn(77, 5, 74, quadratic)
	scales := []float64{0.15, 0.3, 0.7}
	reused, fresh := NewGP(), NewGP()
	reused.LengthScales, fresh.LengthScales = scales, scales
	for step, m := range []int{5, 40, 37, 120, 118, high, 150, 230, 260, 100, -1} {
		if m < 0 {
			if _, m = mustGrow(reused, 0); m > len(X2) {
				t.Fatalf("setup: growing past the buffers takes %d rows, have %d", m, len(X2))
			}
		}
		need := 0
		if m > high {
			need, _ = mustGrow(reused, m)
		}
		if err := reused.Fit(X2[:m], y2[:m]); err != nil {
			t.Fatalf("n=%d: %v", m, err)
		}
		if step == 0 && reused.gpBuffers != bufs {
			t.Fatal("the next GP to fit did not take the released buffers")
		}
		if err := fresh.Fit(X2[:m], y2[:m]); err != nil {
			t.Fatalf("fresh GP, n=%d: %v", m, err)
		}
		if step == 0 && fresh.gpBuffers == bufs {
			t.Fatal("two GPs share one set of buffers")
		}
		if allocs := reused.FitStats().BufferAllocs; allocs != need {
			t.Errorf("n=%d (high-water mark %d): %d buffer allocations, want %d", m, high, allocs, need)
		}
		if reused.LengthScale() != fresh.LengthScale() {
			t.Fatalf("n=%d: scale %v, fresh GP's %v", m, reused.LengthScale(), fresh.LengthScale())
		}
		for i := range fresh.alpha {
			if math.Float64bits(reused.alpha[i]) != math.Float64bits(fresh.alpha[i]) {
				t.Fatalf("n=%d alpha[%d]: %v, fresh GP's %v", m, i, reused.alpha[i], fresh.alpha[i])
			}
		}
		for i := 0; i < m; i++ {
			rr, fr := reused.chol.RawRow(i)[:i+1], fresh.chol.RawRow(i)[:i+1]
			for j := range fr {
				if math.Float64bits(rr[j]) != math.Float64bits(fr[j]) {
					t.Fatalf("n=%d chol[%d][%d]: %v, fresh GP's %v", m, i, j, rr[j], fr[j])
				}
			}
		}
		rm, rs := make([]float64, len(cands)), make([]float64, len(cands))
		fm, fs := make([]float64, len(cands)), make([]float64, len(cands))
		PredictBatch(reused, cands, rm, rs)
		PredictBatch(fresh, cands, fm, fs)
		for i := range cands {
			if math.Float64bits(rm[i]) != math.Float64bits(fm[i]) || math.Float64bits(rs[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("n=%d cand %d: (%v, %v), fresh GP's (%v, %v)", m, i, rm[i], rs[i], fm[i], fs[i])
			}
		}
	}
}

// TestReleasedGPBuffersDieWithTheNextCollection: the free list pins
// nothing; a released set that no GP takes before a collection is
// collected, so an idle process holds no GP buffers.
func TestReleasedGPBuffersDieWithTheNextCollection(t *testing.T) {
	drainGPFree()
	defer drainGPFree()
	X, y := trainOn(60, 3, 75, quadratic)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Release(g)
	runtime.GC()
	if b := takeGPBuffers(); b.dists != nil {
		t.Fatal("a released set survived a collection")
	}
}

// TestGPAsyncRefitsMatchColdFits: the refit sequence of async-bo — each
// step appends a history row and replaces the fantasy rows of the
// points still in flight — extends the factors in place, and every fit
// carries the bits of a cold fit on the same rows: length scale, the
// fit's statistics, and the mean and standard deviation of every
// candidate. The design lies on a line and the noise is negligible, so
// once the history is dense the smooth scale no longer factors at zero
// jitter and the ladder climbs, after which the factors restart at row
// 0 and extend again.
func TestGPAsyncRefitsMatchColdFits(t *testing.T) {
	const fantasies = 2
	H, y := trainOn(100, 1, 51, quadratic)
	F, _ := trainOn(100+fantasies, 1, 53, quadratic)
	pool, _ := trainOn(40, 1, 52, quadratic)
	newGP := func() *GP {
		g := NewGP()
		g.Noise, g.LengthScales = 1e-15, []float64{0.1, 10}
		return g
	}
	warm := newGP()
	var extended, climbed int
	for h := 5; h <= 100; h++ {
		// The history's first h rows, then the fantasies: other rows,
		// each at the last loss, as constant liars are.
		X := append(H[:h:h], F[h:h+fantasies]...)
		Y := append(y[:h:h], y[h-1], y[h-1])
		if err := warm.Fit(X, Y); err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		cold := newGP()
		if err := cold.Fit(X, Y); err != nil {
			t.Fatalf("h=%d cold: %v", h, err)
		}
		ws, cs := warm.FitStats(), cold.FitStats()
		if warm.LengthScale() != cold.LengthScale() || ws.Points != cs.Points ||
			ws.CholeskyRetries != cs.CholeskyRetries || ws.Jitter != cs.Jitter {
			t.Fatalf("h=%d: scale %v, stats %+v; cold fit %v, %+v", h, warm.LengthScale(), ws, cold.LengthScale(), cs)
		}
		if h > 5 && ws.PrefixReused != h-1 {
			t.Fatalf("h=%d: %d rows reused, want the %d history rows of the last fit", h, ws.PrefixReused, h-1)
		}
		if ws.CholeskyRetries > 0 {
			climbed++
		} else if h > 5 {
			extended++
		}
		wm, wsd := make([]float64, len(pool)), make([]float64, len(pool))
		cm, csd := make([]float64, len(pool)), make([]float64, len(pool))
		PredictBatch(warm, pool, wm, wsd)
		PredictBatch(cold, pool, cm, csd)
		for i := range pool {
			if math.Float64bits(wm[i]) != math.Float64bits(cm[i]) || math.Float64bits(wsd[i]) != math.Float64bits(csd[i]) {
				t.Fatalf("h=%d cand %d: (%v, %v), cold fit (%v, %v)", h, i, wm[i], wsd[i], cm[i], csd[i])
			}
		}
	}
	if extended == 0 || climbed == 0 {
		t.Fatalf("%d fits extended at zero jitter and %d climbed the ladder: want both", extended, climbed)
	}
}

// TestGPBuffersHoldOneMatrixPerScale is a memory gate: a GP's buffers
// hold one n×n matrix per length scale and one distance matrix — no
// second copy of any — and after fits up to n rows, none of them holds
// more than 2·n² values.
func TestGPBuffersHoldOneMatrixPerScale(t *testing.T) {
	matrices := func(typ reflect.Type) int {
		k := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type == reflect.TypeOf((*la.Matrix)(nil)) {
				k++
			}
		}
		return k
	}
	if b, s := matrices(reflect.TypeOf(gpBuffers{})), matrices(reflect.TypeOf(gpScaleState{})); b != 1 || s != 1 {
		t.Fatalf("gpBuffers holds %d matrices and gpScaleState %d, want 1 and 1", b, s)
	}
	drainGPFree()
	const top = 403
	X, y := trainOn(top, 3, 65, quadratic)
	g := NewGP()
	for n := 8; n <= 400; n += 4 {
		for _, m := range []int{n, n + 3, n - 3} {
			if err := g.Fit(X[:m], y[:m]); err != nil {
				t.Fatalf("n=%d: %v", m, err)
			}
		}
	}
	if len(g.scaleState) != 4 {
		t.Fatalf("%d scale states, want the default grid's 4", len(g.scaleState))
	}
	held := map[string]*la.Matrix{"distances": g.dists}
	for i := range g.scaleState {
		held[fmt.Sprintf("factor %d", i)] = g.scaleState[i].cur
	}
	for name, m := range held {
		if c := cap(m.RawRow(0)); c > 2*top*top {
			t.Errorf("%s: %d values after fits up to %d rows, more than 2n² = %d", name, c, top, 2*top*top)
		}
	}
}
