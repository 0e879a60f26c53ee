package surrogate

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"simcal/internal/la"
	"simcal/internal/stats"
)

// gpJitterLadder is the sequence of shared diagonal jitters Fit tries.
// Every length-scale candidate in a selection round uses the SAME
// jitter, so their log marginal likelihoods are comparable; the ladder
// is only climbed when some candidate fails to factorize at the
// current level.
var gpJitterLadder = [...]float64{0, 1e-6}

// gpBoundDiagonal is the least noise plus jitter at which PredictMean
// bounds the standard deviations it will be asked for. Above it every
// eigenvalue of the factored kernel is at least about this much, so a
// solved kernel vector has norm at most √n / √gpBoundDiagonal: finite.
const gpBoundDiagonal = 1e-8

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
//
// The buffers outlive the GP: Release hands them to the next GP that
// fits, which only re-shapes them, so a process that runs one
// calibration after another grows its n×n matrices once, not once per
// calibration. Reused buffers carry no bits from their last owner:
// every cell a fit or prediction reads, it wrote first.
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
	// PredictWorkers bounds the goroutines used by each scoring pass
	// (0 = GOMAXPROCS, 1 = serial). The output is identical either way.
	PredictWorkers int

	x            [][]float64 // the model's own list of the fitted rows
	alpha        []float64
	chol         *la.Matrix
	scale        float64 // chosen length scale
	yMean, yStd  float64
	signalStdDev float64
	stdMax       float64 // a bound on every std, +Inf for none (Fit)
	diag         float64 // the factored kernel's diagonal
	fitStats     FitStats
	scoreStats   ScoreStats

	// The fit and predict buffers: nil until the first Fit takes a set
	// (takeGPBuffers), and again once Release has handed it on.
	*gpBuffers
}

// gpBuffers is the memory a GP fits and predicts in. A later Fit
// detects the rows it shares with the GP's x as a prefix; dists holds
// pairwise distances for x; distsNext is the ping-pong buffer the next
// fit extends into. scaleState keeps one factored kernel per
// length-scale candidate so an appended-rows refit only factors the new
// rows.
type gpBuffers struct {
	dists      *la.Matrix
	distsNext  *la.Matrix
	scaleState []gpScaleState
	yn         []float64

	// predBufs[w] is scoring worker w's scratch, kept across calls and
	// grown geometrically: in the mean pass a pair of tiles'
	// exponentials and a tile's candidates dimension-major, in the
	// variance pass the pair of tiles it gathers and solves.
	predBufs [][]float64
	// pool is the scoring state of the last mean pass.
	pool gpPool
}

// gpFree holds the buffers of released GPs for the next GP that fits,
// most recent last. Its entries are weak pointers: a set no GP takes
// before the next collection is collected, so an idle process pins
// none. A sync.Pool would not do: a Put lands in the putting P's
// private slot, which a Get on another P cannot steal, so whether the
// next calibration found the buffers would depend on scheduling.
var gpFree struct {
	sync.Mutex
	sets []weak.Pointer[gpBuffers]
}

// takeGPBuffers pops the most recently released set still alive, or
// makes an empty one.
func takeGPBuffers() *gpBuffers {
	gpFree.Lock()
	defer gpFree.Unlock()
	for len(gpFree.sets) > 0 {
		last := len(gpFree.sets) - 1
		b := gpFree.sets[last].Value()
		gpFree.sets = gpFree.sets[:last]
		if b != nil {
			return b
		}
	}
	return new(gpBuffers)
}

// Release hands r's fit and predict buffers to the next GP that fits
// and leaves r unfitted: it must Fit again before it predicts. No call
// on r may be running. Release does nothing for a regressor without
// such buffers (the tree ensembles) or one that holds none.
func Release(r Regressor) {
	g, ok := r.(*GP)
	if !ok || g == nil || g.gpBuffers == nil {
		return
	}
	b := g.gpBuffers
	g.gpBuffers = nil
	g.invalidate()
	gpFree.Lock()
	gpFree.sets = append(gpFree.sets, weak.Make(b))
	gpFree.Unlock()
}

// gpScaleState caches per-length-scale fit state across refits.
type gpScaleState struct {
	cur      *la.Matrix // Cholesky factor from the last successful fit
	next     *la.Matrix // ping-pong buffer the current fit factors into
	alpha    []float64
	exp      []float64 // the kernel fill's la.Exp output for one row
	n        int       // rows factored in cur
	scaleVal float64   // length scale cur was factored with
	noise    float64   // noise cur was factored with
	jitter   float64   // jitter cur was factored with
	lml      float64
	ok       bool
}

// NewGP returns a GP regressor with default hyperparameter candidates.
func NewGP() *GP { return &GP{} }

// Reseed implements Regressor. The GP is deterministic and keeps no
// RNG, so this is a no-op.
func (g *GP) Reseed(int64) {}

// FitStats implements FitStatsProvider.
func (g *GP) FitStats() FitStats { return g.fitStats }

// matern52 evaluates the Matérn-5/2 kernel for distance r and length
// scale l, with unit signal variance: (1 + s + s²/3)·exp(-s) for
// s = √5·r/l. It is the reference the batched fills are held to; they
// split it at its exp, which they take for a whole row at once with
// la.Exp, bit for bit math.Exp.
func matern52(r, l float64) float64 {
	ns := maternNegArg(r, l)
	return maternFromExp(ns, math.Exp(ns))
}

// maternNegArg returns -s, the argument of matern52's exp. l is
// positive: Fit checks every candidate scale once, before any fill.
func maternNegArg(r, l float64) float64 {
	return -(math.Sqrt(5) * r / l)
}

// maternFromExp finishes matern52 from ns = -s and e = exp(-s).
func maternFromExp(ns, e float64) float64 {
	s := -ns
	return (1 + s + s*s/3) * e
}

func dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// commonPrefix reports how many leading rows of X are unchanged from
// the previous fit. Rows are compared by pointer first (BO keeps stable
// parameter-vector slices in its history) with a value-compare
// fallback.
func (g *GP) commonPrefix(X [][]float64) int {
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
// async-bo fit, whose fantasy rows move n per proposal — nor, once an
// earlier calibration's GP has been released, while n stays below the
// largest size that GP saw. Stale contents after a re-shape, or from
// the previous owner, are harmless: every cell is written below.
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

// invalidate clears the fitted model after a failed fit, or a Release,
// so stale state cannot be reused by Predict or a later incremental
// Fit: with no rows in x, the next Fit shares no prefix with anything.
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
	if g.gpBuffers == nil {
		g.gpBuffers = takeGPBuffers()
	}
	g.pool.size = 0 // the kernel vectors of the last pool are the old model's
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
	for _, l := range scales {
		if l <= 0 {
			panic("surrogate: non-positive GP length scale")
		}
	}

	prefix := g.commonPrefix(X)
	dists := g.extendDists(X, prefix)
	if len(g.scaleState) != len(scales) {
		// Keep every entry's buffers (a set from the free list may have
		// served another grid), but extend none of their factors.
		ss := g.scaleState[:cap(g.scaleState)]
		for len(ss) < len(scales) {
			ss = append(ss, gpScaleState{})
		}
		for i := range ss {
			ss[i].n = 0
		}
		g.scaleState = ss[:len(scales)]
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
	// σ ≤ yStd always holds. It, and stdBound's tighter bound, are
	// offered only while the kernel diagonal keeps the factor's inverse
	// small enough that no variance solve can overflow into a NaN: a
	// caller prunes by them and never sees the pruned variances.
	g.stdMax = math.Inf(1)
	if noise+jitter >= gpBoundDiagonal {
		g.stdMax = yStd
	}
	g.diag = 1 + noise + jitter
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
// index-addressed, so the outcome is identical to a serial sweep. A
// panic on a worker is re-raised here (workerGroup).
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
		var grp workerGroup
		for w := 0; w < workers; w++ {
			grp.wg.Add(1)
			go func() {
				defer grp.done()
				for i := grp.claim(); i < len(scales); i = grp.claim() {
					g.fitOneScale(i, scales[i], dists, yn, noise, jit, prefix, n, &allocs)
				}
			}()
		}
		grp.wait()
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
	if cap(st.alpha) < n {
		b := make([]float64, 4*n) // alpha and exp share one allocation
		st.alpha, st.exp = b[:n:2*n], b[2*n:]
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
		ri := l.RawRow(i)[:i+1]
		for j, r := range dists.RawRow(i)[:i] {
			ri[j] = maternNegArg(r, scale)
		}
		e := st.exp[:i]
		la.Exp(e, ri[:i])
		for j, ns := range ri[:i] {
			ri[j] = maternFromExp(ns, e[j])
		}
		ri[i] = diag
	}
	if err := la.CholeskyExtendInPlace(l, start); err != nil {
		return
	}

	st.alpha = st.alpha[:n]
	if err := la.CholSolveInto(l, yn, st.alpha); err != nil {
		return
	}

	lml := -0.5 * la.Dot(yn, st.alpha)
	for i := 0; i < n; i++ {
		lml -= math.Log(l.At(i, i))
	}
	lml -= float64(float64(n) / 2 * math.Log(2*math.Pi))
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
	mean = g.meanOne(x, buf[:n])
	return mean, g.stdOne(buf[:n], buf[n:])
}

// meanOne is the scalar path's mean pass for one candidate: it writes
// the candidate's kernel vector into kstar and returns its mean.
func (g *GP) meanOne(x, kstar []float64) float64 {
	for i, xi := range g.x {
		kstar[i] = matern52(dist(x, xi), g.scale)
	}
	return float64(la.Dot(kstar, g.alpha)*g.yStd) + g.yMean
}

// stdOne is the scalar path's variance pass: it solves meanOne's kernel
// vector into v and returns the standard deviation.
func (g *GP) stdOne(kstar, v []float64) float64 {
	variance := 1.0
	if err := la.SolveLowerInto(g.chol, kstar, v); err == nil {
		variance = 1 - la.Dot(v, v)
	}
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance) * g.yStd
}

// meanTiles is the mean pass over one or two tiles of la.SolveTile
// candidates, k = len(X)/la.SolveTile. tile takes their kernel vectors,
// tile-major and interleaved as la.SolveLowerTile takes them; e takes as
// many exponentials, and xt a tile's candidates dimension-major. Tile by
// tile, the fill writes each -s (fillNegArgs); one la.Exp takes all of
// their exponentials; maternTile finishes the kernel values in place
// and accumulates the mean's inner products, in la.Dot's order
// (ascending row, from zero), so every mean carries meanOne's bits.
// tileMax then finds each candidate's largest kernel value, from which
// stdBound bounds its standard deviation.
func (g *GP) meanTiles(X [][]float64, mean, std, tile, e, xt []float64) {
	const w = la.SolveTile
	span := len(g.x) * w
	k := len(X) / w
	var mn [2 * w]float64
	for t := 0; t < k; t++ {
		g.fillNegArgs(tile[t*span:(t+1)*span], X[t*w:t*w+w], xt)
	}
	e = e[:k*span]
	la.Exp(e, tile)
	for t := 0; t < k; t++ {
		o := t * span
		maternTile(tile[o:o+span], e[o:o+span], g.alpha, (*[w]float64)(mn[t*w:]))
	}
	var km [2 * w]float64
	for t := 0; t < k; t++ {
		tileMax(tile[t*span:(t+1)*span], (*[w]float64)(km[t*w:]))
	}
	for c := range X {
		mean[c] = float64(mn[c]*g.yStd) + g.yMean
		std[c] = g.stdBound(km[c])
	}
}

// stdBound bounds the standard deviation the variance pass computes for
// a candidate whose largest kernel value is kmax (DESIGN §6). For a
// kernel vector k and any training row j, kᵀK⁻¹k ≥ k_j²/K_jj (Cauchy–
// Schwarz), and the computed sum of squares of the solved vector keeps
// that bound up to a relative rounding error of about 4(n+1)·2⁻⁵³ — the
// factor and the solve are backward stable — which the factor 1−2⁻³⁰
// covers many times over. 1 − vv and the square root round
// monotonically, so the computed standard deviation never exceeds the
// bound computed the same way. Without a bound (gpBoundDiagonal, or a
// factor a solve would fail on), it is stdMax.
func (g *GP) stdBound(kmax float64) float64 {
	if !g.pool.tight {
		return g.stdMax
	}
	v := 1 - float64(kmax*kmax/g.diag*(1-0x1p-30))
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v) * g.yStd
}

// solveColumns is the variance pass over up to two tiles of candidates
// cols, gathered from the pool's kernel vectors into buf: one
// la.SolveLowerTile call solves every column, and sumSquares
// accumulates the variance's inner products over the result. Each
// column goes through exactly the operations it would in its own tile,
// in la.Dot's order, so every output carries stdOne's bits; unused
// columns of the last tile are zeros.
func (g *GP) solveColumns(cols []int, std, buf []float64) {
	const w = la.SolveTile
	n := len(g.x)
	span := n * w
	tiles := (len(cols) + w - 1) / w
	buf = buf[:tiles*span]
	for j := len(cols); j < tiles*w; j++ {
		t, c := j/w*span, j%w
		for i := 0; i < n; i++ {
			buf[t+i*w+c] = 0
		}
	}
	for j, cand := range cols {
		base, stride := g.pool.column(cand, n)
		t, c := j/w*span, j%w
		for i := 0; i < n; i++ {
			buf[t+i*w+c] = g.pool.kstar[base+i*stride]
		}
	}
	var vv [2 * w]float64
	// A failed solve leaves vv at zero: unit variance, as in stdOne.
	if la.SolveLowerTile(g.chol, buf) == nil {
		for t := 0; t < tiles; t++ {
			sumSquares(buf[t*span:(t+1)*span], (*[w]float64)(vv[t*w:]))
		}
	}
	for j, cand := range cols {
		variance := 1 - vv[j]
		if variance < 0 {
			variance = 0
		}
		std[cand] = math.Sqrt(variance) * g.yStd
	}
}

// fillNegArgs writes one tile's -s values, tile[i*la.SolveTile+c] =
// maternNegArg(dist(X[c], g.x[i]), g.scale), through negArgs on a
// dimension-major copy of the candidates in xt. A candidate of another
// dimension than the model's takes the scalar loop, which indexes (and
// panics) exactly as meanOne does.
func (g *GP) fillNegArgs(tile []float64, X [][]float64, xt []float64) {
	const w = la.SolveTile
	dims := len(g.x[0])
	for _, x := range X {
		if len(x) != dims {
			for i, xi := range g.x {
				for c, x := range X {
					tile[i*w+c] = maternNegArg(dist(x, xi), g.scale)
				}
			}
			return
		}
	}
	xt = xt[:dims*w]
	for c, x := range X {
		for d, v := range x {
			xt[d*w+c] = v
		}
	}
	negArgs(tile, xt, g.x, g.scale)
}

// unitEnd returns the end of the scoring unit that starts at candidate
// c of a chunk ending at hi: two tiles of la.SolveTile while they fit,
// then one tile if it fits, then single candidates: the mean pass fills
// a unit's kernel vectors in one go.
func unitEnd(c, hi int) int {
	switch {
	case c+2*la.SolveTile <= hi:
		return c + 2*la.SolveTile
	case c+la.SolveTile <= hi:
		return c + la.SolveTile
	}
	return c + 1
}

// gpPool is the GP's scoring state for the pool of its last mean pass:
// the kernel vectors the variance pass solves, the two passes' item
// runners and their worker group. It lives in gpBuffers, so scoring a
// pool allocates nothing but the worker goroutines.
type gpPool struct {
	// kstar holds the pool's kernel vectors unit by unit: the unit
	// [c, unitEnd) at kstar[c*n:], where n is the number of training
	// rows — a tile or two interleaved, or one plain vector (column).
	kstar  []float64
	solved []bool // solved[c]: the variance pass wrote std[c]
	size   int    // candidates in the pool; 0 after a Fit
	tight  bool   // stdBound bounds by the largest kernel value
	cols   []int  // the variance pass's candidates, ascending
	grp    workerGroup
	mean   gpMeanPass
	std    gpStdPass
}

// column returns where candidate c's kernel vector lies in kstar: n
// values from base, stride apart.
func (p *gpPool) column(c, n int) (base, stride int) {
	const w = la.SolveTile
	lo, hi := chunk(c/predictChunk, p.size)
	if c-lo < (hi-lo)/w*w {
		t0 := lo + (c-lo)/w*w
		return t0*n + c - t0, w
	}
	return c * n, 1
}

// gpMeanPass runs the mean pass over one chunk of the pool.
type gpMeanPass struct {
	g         *GP
	X         [][]float64
	mean, std []float64
}

func (p *gpMeanPass) run(w, i int) {
	const pair = 2 * la.SolveTile
	g := p.g
	n := len(g.x)
	lo, hi := chunk(i, len(p.X))
	buf := g.predBufs[w]
	for c := lo; c < hi; {
		end := unitEnd(c, hi)
		kstar := g.pool.kstar[c*n : end*n]
		if end == c+1 {
			p.mean[c] = g.meanOne(p.X[c], kstar)
			km := 0.0
			for _, v := range kstar {
				if !(km > v) {
					km = v
				}
			}
			p.std[c] = g.stdBound(km)
		} else {
			g.meanTiles(p.X[c:end], p.mean[c:end], p.std[c:end], kstar, buf[:pair*n], buf[pair*n:])
		}
		c = end
	}
}

// gpStdPass runs the variance pass over one group of up to two tiles of
// the pool's unsolved needed candidates.
type gpStdPass struct {
	g   *GP
	std []float64
}

func (p *gpStdPass) run(w, i int) {
	const pair = 2 * la.SolveTile
	cols := p.g.pool.cols[i*pair : min(i*pair+pair, len(p.g.pool.cols))]
	p.g.solveColumns(cols, p.std, p.g.predBufs[w])
}

// PredictMean implements Regressor. Candidates are scored in
// predictChunk-sized chunks across up to PredictWorkers goroutines;
// within a chunk they go two tiles of la.SolveTile at a time through
// meanTiles, then one tile, and what is left of the chunk through
// meanOne — the path Predict takes. The paths agree bit for bit and
// every write is index-addressed, so every mean is bitwise Predict's,
// for any pool size and worker count. std[i] receives stdBound's bound
// on the standard deviation, and the kernel vectors stay in the GP's
// pool buffer for PredictStd. Each worker's scratch is one buffer of
// the GP's, kept across calls; so PredictMean and PredictStd, like Fit,
// must not run concurrently with another call on the same GP.
func (g *GP) PredictMean(X [][]float64, mean, std []float64) {
	if g.chol == nil {
		panic("surrogate: PredictMean before Fit")
	}
	checkBatchArgs(X, mean, std)
	const pair = 2 * la.SolveTile
	n := len(g.x)
	p := &g.pool
	if need := len(X) * n; cap(p.kstar) < need {
		p.kstar = make([]float64, need, 2*need)
	}
	p.kstar = p.kstar[:len(X)*n]
	if cap(p.solved) < len(X) {
		p.solved = make([]bool, len(X), 2*len(X))
	}
	p.solved = p.solved[:len(X)]
	clear(p.solved)
	p.size = len(X)
	p.tight = !math.IsInf(g.stdMax, 1)
	for i := 0; i < n && p.tight; i++ {
		p.tight = g.chol.At(i, i) != 0
	}
	items := chunks(len(X))
	g.growPredBufs(batchWorkers(items, g.PredictWorkers), pair*n+la.SolveTile*len(g.x[0]))
	p.mean = gpMeanPass{g, X, mean, std}
	batchLoop(items, g.PredictWorkers, &p.grp, &p.mean)
	p.mean = gpMeanPass{}
	g.scoreStats.Scored += len(X)
}

// PredictStd implements Regressor. It gathers the needed candidates it
// has not solved yet, in pool order, into groups of two tiles of
// la.SolveTile and solves the groups (solveColumns) across up to
// PredictWorkers goroutines. A candidate's standard deviation is the
// same whichever group and column it is solved in: Predict's, bit for
// bit.
func (g *GP) PredictStd(need []bool, std []float64) {
	if g.chol == nil {
		panic("surrogate: PredictStd before Fit")
	}
	const pair = 2 * la.SolveTile
	p := &g.pool
	if len(std) != p.size || need != nil && len(need) != p.size {
		panic("surrogate: PredictStd length differs from the mean pass's pool")
	}
	cols := p.cols[:0]
	for c, done := range p.solved {
		if !done && (need == nil || need[c]) {
			p.solved[c] = true
			cols = append(cols, c)
		}
	}
	p.cols = cols
	g.scoreStats.Solved += len(cols)
	items := (len(cols) + pair - 1) / pair
	g.growPredBufs(batchWorkers(items, g.PredictWorkers), pair*len(g.x))
	p.std = gpStdPass{g, std}
	batchLoop(items, g.PredictWorkers, &p.grp, &p.std)
	p.std = gpStdPass{}
}

// growPredBufs makes the first workers per-worker buffers at least need
// values long, growing each geometrically.
func (g *GP) growPredBufs(workers, need int) {
	for len(g.predBufs) < workers {
		g.predBufs = append(g.predBufs, nil)
	}
	for w, b := range g.predBufs[:workers] {
		if cap(b) < need {
			g.predBufs[w] = make([]float64, need, 2*need)
		}
		g.predBufs[w] = g.predBufs[w][:cap(g.predBufs[w])]
	}
}

// ScoreStats returns the GP's scoring counts since it was made.
func (g *GP) ScoreStats() ScoreStats { return g.scoreStats }

// LengthScale returns the length scale selected during Fit.
func (g *GP) LengthScale() float64 { return g.scale }
