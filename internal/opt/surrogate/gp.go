package surrogate

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"simcal/internal/la"
	"simcal/internal/stats"
)

// gpJitterLadder is the sequence of shared diagonal jitters Fit tries.
// Every length-scale candidate in a selection round uses the SAME
// jitter, so their log marginal likelihoods are comparable; the ladder
// is only climbed when some candidate fails to factorize at the
// current level.
var gpJitterLadder = [...]float64{0, 1e-6}

// GP is a Gaussian-process regressor with a Matérn-5/2 kernel over the
// unit cube (BO-GP). The length scale is selected from a small candidate
// set by log marginal likelihood at Fit time; targets are standardized
// internally. This mirrors scikit-optimize's default GP surrogate at the
// fidelity the calibration experiments need.
//
// Fit is incremental: when the new training set extends the previous one
// by appended rows (the common BO refit shape), the cached distance
// matrix and each scale's Cholesky factor are extended in place instead
// of recomputed, and buffers are reused across refits. The length-scale
// grid is evaluated concurrently across FitWorkers goroutines. Both
// optimizations are bitwise transparent: the selected scale, alpha,
// factor, and all subsequent predictions are identical to a serial
// from-scratch fit (la.CholeskyExtendInPlace performs the exact per-row
// operation sequence of a full factorization, and the grid winner is
// chosen by ascending candidate index regardless of which goroutine
// finished first).
type GP struct {
	// LengthScales are the candidate kernel length scales; the one with
	// the highest log marginal likelihood wins (lowest index on ties).
	// Defaults to a small logarithmic grid.
	LengthScales []float64
	// Noise is the observation-noise variance added to the kernel
	// diagonal (relative to unit target variance). Default 1e-4.
	Noise float64
	// FitWorkers bounds the goroutines used to evaluate the length-scale
	// grid (0 = GOMAXPROCS, 1 = serial). The fitted model is identical
	// either way.
	FitWorkers int
	// PredictWorkers bounds the goroutines used by PredictBatch
	// (0 = GOMAXPROCS, 1 = serial). The output is identical either way.
	PredictWorkers int

	x            [][]float64 // the model's own list of the fitted rows
	alpha        []float64
	chol         *la.Matrix
	scale        float64 // chosen length scale
	yMean, yStd  float64
	signalStdDev float64

	// Incremental-fit caches. A later Fit detects the rows it shares with
	// x as a prefix; dists holds pairwise distances for x; distsNext is
	// the ping-pong buffer the next fit extends into. scaleState keeps
	// one factored kernel per length-scale candidate so an appended-rows
	// refit only factors the new rows.
	dists      *la.Matrix
	distsNext  *la.Matrix
	scaleState []gpScaleState
	yn         []float64
	fitStats   FitStats
}

// gpScaleState caches per-length-scale fit state across refits.
type gpScaleState struct {
	cur      *la.Matrix // Cholesky factor from the last successful fit
	next     *la.Matrix // ping-pong buffer the current fit factors into
	alpha    []float64
	n        int     // rows factored in cur
	scaleVal float64 // length scale cur was factored with
	noise    float64 // noise cur was factored with
	jitter   float64 // jitter cur was factored with
	lml      float64
	ok       bool
}

// NewGP returns a GP regressor with default hyperparameter candidates.
func NewGP() *GP { return &GP{} }

// Name implements Regressor.
func (g *GP) Name() string { return "GP" }

// Reseed implements Reseeder. The GP is deterministic and keeps no RNG,
// so this is a no-op; it exists so BayesOpt can reuse one GP across
// refits (keeping the incremental caches warm) through the same
// interface it uses for the stochastic regressors.
func (g *GP) Reseed(int64) {}

// FitStats implements FitStatsProvider.
func (g *GP) FitStats() FitStats { return g.fitStats }

// matern52 evaluates the Matérn-5/2 kernel for distance r and length
// scale l, with unit signal variance.
func matern52(r, l float64) float64 {
	if l <= 0 {
		panic("surrogate: non-positive GP length scale")
	}
	s := math.Sqrt(5) * r / l
	return (1 + s + s*s/3) * math.Exp(-s)
}

func dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// commonPrefix reports how many leading rows of X are unchanged from
// the previous fit. Rows are compared by pointer first (BO keeps stable
// parameter-vector slices in its history) with a value-compare
// fallback.
func (g *GP) commonPrefix(X [][]float64) int {
	if g.dists == nil {
		return 0
	}
	max := len(g.x)
	if len(X) < max {
		max = len(X)
	}
	for i := 0; i < max; i++ {
		a, b := g.x[i], X[i]
		if len(a) != len(b) {
			return i
		}
		if len(a) > 0 && &a[0] == &b[0] {
			continue
		}
		for j := range a {
			if a[j] != b[j] {
				return i
			}
		}
	}
	return max
}

// extendDists produces the n×n distance matrix for X, copying the
// prefix×prefix block from the cached matrix and computing only the
// rows involving new points. Buffers ping-pong between dists and
// distsNext, each re-shaped over a backing array that only ever grows
// (geometrically), so refits allocate nothing while n wanders below the
// largest size seen — BO's first MaxFitPoints iterations and every
// async-bo fit, whose fantasy rows move n per proposal. Stale contents
// after a re-shape are harmless: every cell is written below.
func (g *GP) extendDists(X [][]float64, prefix int) *la.Matrix {
	n := len(X)
	if g.distsNext == nil {
		g.distsNext = new(la.Matrix)
	}
	d := g.distsNext
	if d.Reshape(n, n) {
		g.fitStats.BufferAllocs++
	}
	for i := 0; i < prefix; i++ {
		copy(d.RawRow(i)[:prefix], g.dists.RawRow(i)[:prefix])
	}
	for i := prefix; i < n; i++ {
		ri := d.RawRow(i)
		ri[i] = 0
		for j := 0; j < i; j++ {
			v := dist(X[i], X[j])
			ri[j] = v
			d.RawRow(j)[i] = v
		}
	}
	g.distsNext = g.dists
	g.dists = d
	return d
}

// invalidate clears the fitted model after a failed fit so stale state
// cannot be reused by Predict or a later incremental Fit.
func (g *GP) invalidate() {
	g.chol = nil
	g.alpha = nil
	g.x = g.x[:0]
}

// Fit implements Regressor.
func (g *GP) Fit(X [][]float64, y []float64) error {
	if err := validateXY(X, y); err != nil {
		return err
	}
	n := len(X)
	g.fitStats = FitStats{}
	yMean := stats.Mean(y)
	yStd := stats.StdDev(y)
	if yStd <= 0 {
		yStd = 1
	}
	if cap(g.yn) < n {
		g.yn = make([]float64, n)
	}
	yn := g.yn[:n]
	for i, v := range y {
		yn[i] = (v - yMean) / yStd
	}
	noise := g.Noise
	if noise <= 0 {
		noise = 1e-4
	}
	scales := g.LengthScales
	if len(scales) == 0 {
		scales = []float64{0.1, 0.2, 0.5, 1.0}
	}

	prefix := g.commonPrefix(X)
	dists := g.extendDists(X, prefix)
	if len(g.scaleState) != len(scales) {
		g.scaleState = make([]gpScaleState, len(scales))
	}

	// Climb the jitter ladder. Within one rung every scale shares the
	// same diagonal jitter, so the LML comparison across scales is
	// apples to apples; if any scale fails to factorize the whole grid
	// is redone at the next rung, rather than silently comparing models
	// with different diagonals.
	fitted := false
	var jitter float64
	for rung, jit := range gpJitterLadder {
		if rung > 0 {
			g.fitStats.CholeskyRetries++
		}
		g.fitScales(scales, dists, yn, noise, jit, prefix, n)
		allOK := true
		anyOK := false
		for i := range g.scaleState {
			if g.scaleState[i].ok {
				anyOK = true
			} else {
				allOK = false
			}
		}
		if allOK || (anyOK && rung == len(gpJitterLadder)-1) {
			fitted, jitter = true, jit
			break
		}
	}
	if !fitted {
		g.invalidate()
		return la.ErrNotPositiveDefinite
	}

	// Deterministic winner: ascending index with strictly-greater LML,
	// so ties go to the lowest index no matter which goroutine ran it.
	best := -1
	bestLML := math.Inf(-1)
	for i := range g.scaleState {
		st := &g.scaleState[i]
		if st.ok && st.lml > bestLML {
			best, bestLML = i, st.lml
		}
	}
	if best < 0 {
		g.invalidate()
		return la.ErrNotPositiveDefinite
	}

	// Promote the freshly-factored buffers to "current" for the next
	// incremental fit.
	for i := range g.scaleState {
		st := &g.scaleState[i]
		if !st.ok {
			st.n = 0
			continue
		}
		st.cur, st.next = st.next, st.cur
		st.n = n
		st.scaleVal = scales[i]
		st.noise = noise
		st.jitter = jitter
	}

	// A copy of the row list, not X itself: the caller may reuse X for
	// its next training set.
	g.x = append(g.x[:0], X...)
	g.yMean, g.yStd = yMean, yStd
	g.chol = g.scaleState[best].cur
	g.alpha = g.scaleState[best].alpha
	g.scale = scales[best]
	g.signalStdDev = 1
	g.fitStats.Points = n
	g.fitStats.PrefixReused = prefix
	g.fitStats.Incremental = prefix > 0
	g.fitStats.Jitter = jitter
	return nil
}

// fitScales evaluates every length-scale candidate at one jitter level,
// writing results into g.scaleState by index. Candidates are claimed
// from an atomic counter across up to FitWorkers goroutines; each
// candidate's computation is independent and its result slot is
// index-addressed, so the outcome is identical to a serial sweep.
func (g *GP) fitScales(scales []float64, dists *la.Matrix, yn []float64, noise, jit float64, prefix, n int) {
	workers := g.FitWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scales) {
		workers = len(scales)
	}
	var allocs int32
	if workers <= 1 {
		for i, l := range scales {
			g.fitOneScale(i, l, dists, yn, noise, jit, prefix, n, &allocs)
		}
	} else {
		var next int32 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt32(&next, 1))
					if i >= len(scales) {
						return
					}
					g.fitOneScale(i, scales[i], dists, yn, noise, jit, prefix, n, &allocs)
				}
			}()
		}
		wg.Wait()
	}
	g.fitStats.BufferAllocs += int(allocs)
}

// fitOneScale builds (or extends) the kernel factor for one length
// scale and computes its alpha and log marginal likelihood. When the
// cached factor for this scale covers a prefix of the new rows under
// the same kernel diagonal, only rows [start, n) are filled and
// factored; the resulting factor is bitwise identical to a from-scratch
// one (see la.CholeskyExtendInPlace).
func (g *GP) fitOneScale(idx int, scale float64, dists *la.Matrix, yn []float64, noise, jit float64, prefix, n int, allocs *int32) {
	st := &g.scaleState[idx]
	st.ok = false

	start := 0
	if st.cur != nil && st.scaleVal == scale && st.noise == noise && st.jitter == jit {
		start = st.n
		if prefix < start {
			start = prefix
		}
	}

	if st.next == nil {
		st.next = new(la.Matrix)
	}
	l := st.next
	if l.Reshape(n, n) {
		atomic.AddInt32(allocs, 1)
	}
	// Reuse the already-factored rows (RawRow copies tolerate the old
	// buffer having a different stride), then fill the kernel for the
	// rest. Only the lower triangle is touched — CholeskyExtendInPlace
	// never reads above the diagonal — so whatever a re-shape left there
	// is never seen.
	for i := 0; i < start; i++ {
		copy(l.RawRow(i)[:i+1], st.cur.RawRow(i)[:i+1])
	}
	diag := 1 + noise + jit
	for i := start; i < n; i++ {
		ri := l.RawRow(i)
		di := dists.RawRow(i)
		for j := 0; j < i; j++ {
			ri[j] = matern52(di[j], scale)
		}
		ri[i] = diag
	}
	if err := la.CholeskyExtendInPlace(l, start); err != nil {
		return
	}

	if cap(st.alpha) < n {
		st.alpha = make([]float64, n, 2*n)
	}
	st.alpha = st.alpha[:n]
	if err := la.CholSolveInto(l, yn, st.alpha); err != nil {
		return
	}

	lml := -0.5 * la.Dot(yn, st.alpha)
	for i := 0; i < n; i++ {
		lml -= math.Log(l.At(i, i))
	}
	lml -= float64(n) / 2 * math.Log(2*math.Pi)
	st.lml = lml
	st.ok = true
}

// Predict implements Regressor.
func (g *GP) Predict(x []float64) (mean, std float64) {
	if g.chol == nil {
		panic("surrogate: Predict before Fit")
	}
	n := len(g.x)
	buf := make([]float64, 2*n)
	return g.predictOne(x, buf[:n], buf[n:])
}

// predictOne scores one candidate through the scalar solve, with kstar
// and v as its two length-n work vectors.
func (g *GP) predictOne(x, kstar, v []float64) (mean, std float64) {
	for i, xi := range g.x {
		kstar[i] = matern52(dist(x, xi), g.scale)
	}
	mn := la.Dot(kstar, g.alpha)
	variance := 1.0
	if err := la.SolveLowerInto(g.chol, kstar, v); err == nil {
		variance = 1 - la.Dot(v, v)
	}
	if variance < 0 {
		variance = 0
	}
	return mn*g.yStd + g.yMean, math.Sqrt(variance) * g.yStd
}

// predictTile scores la.SolveTile candidates at once: their kernel
// vectors are filled interleaved into tile, solved together by
// la.SolveLowerTile, and the mean and variance inner products are
// accumulated per candidate in la.Dot's order (ascending row, from
// zero), so every output carries predictOne's bits.
func (g *GP) predictTile(X [][]float64, mean, std, tile []float64) {
	const w = la.SolveTile
	var mn, vv [w]float64
	for i, xi := range g.x {
		a := g.alpha[i]
		row := tile[i*w : i*w+w]
		for c := range row {
			k := matern52(dist(X[c], xi), g.scale)
			row[c] = k
			mn[c] += k * a
		}
	}
	// A failed solve leaves vv at zero: unit variance, as in predictOne.
	if la.SolveLowerTile(g.chol, tile) == nil {
		for i := range g.x {
			for c, v := range tile[i*w : i*w+w] {
				vv[c] += v * v
			}
		}
	}
	for c := range mn {
		variance := 1 - vv[c]
		if variance < 0 {
			variance = 0
		}
		mean[c] = mn[c]*g.yStd + g.yMean
		std[c] = math.Sqrt(variance) * g.yStd
	}
}

// PredictBatch implements Regressor. Candidates are scored in
// predictChunk-sized chunks across up to PredictWorkers goroutines;
// within a chunk they go la.SolveTile at a time through predictTile,
// and what is left of the chunk through predictOne — the path Predict
// takes. The two agree bit for bit and every write is index-addressed,
// so the output is bitwise identical to calling Predict once per
// candidate, for any pool size and worker count. Each worker's scratch
// is one tile-sized buffer, which the remainder path splits into its two
// work vectors.
func (g *GP) PredictBatch(X [][]float64, mean, std []float64) {
	if g.chol == nil {
		panic("surrogate: PredictBatch before Fit")
	}
	checkBatchArgs(X, mean, std)
	n := len(g.x)
	batchLoop(len(X), g.PredictWorkers,
		func() []float64 { return make([]float64, n*la.SolveTile) },
		func(lo, hi int, tile []float64) {
			c := lo
			for ; c+la.SolveTile <= hi; c += la.SolveTile {
				g.predictTile(X[c:c+la.SolveTile], mean[c:], std[c:], tile)
			}
			for ; c < hi; c++ {
				mean[c], std[c] = g.predictOne(X[c], tile[:n], tile[n:2*n])
			}
		})
}

// LengthScale returns the length scale selected during Fit.
func (g *GP) LengthScale() float64 { return g.scale }
