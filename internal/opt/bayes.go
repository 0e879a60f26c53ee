package opt

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"time"

	"simcal/internal/core"
	"simcal/internal/opt/surrogate"
	"simcal/internal/resilience"
)

// Acquisition selects how BayesOpt scores candidates.
type Acquisition int

const (
	// EI is expected improvement (the default, as in scikit-optimize).
	EI Acquisition = iota
	// LCB is the lower confidence bound mean − κ·std; candidates with
	// the lowest bound win. More exploratory for large Kappa.
	LCB
)

// BayesOpt is the BO algorithm: an incrementally refit surrogate model
// prunes the search space, balancing exploration (high predictive
// uncertainty) and exploitation (low predicted loss) through the
// expected-improvement acquisition function (or, optionally, a lower
// confidence bound).
type BayesOpt struct {
	// NewRegressor builds a fresh surrogate for each refit. Required.
	NewRegressor func(seed int64) surrogate.Regressor
	// RegressorName labels the algorithm ("GP", "RF", ...). Required.
	RegressorName string
	// InitSamples is the number of random points evaluated before the
	// first surrogate fit. Defaults to max(2·dim, 8).
	InitSamples int
	// Batch is the number of acquisition winners evaluated per iteration
	// (in parallel). Defaults to 4.
	Batch int
	// Candidates is the size of the random candidate pool scored by the
	// acquisition per iteration. Defaults to 512.
	Candidates int
	// Xi is the expected-improvement exploration margin. Defaults to 0.01.
	Xi float64
	// Acq selects the acquisition function (EI by default).
	Acq Acquisition
	// Kappa is the LCB exploration weight. Defaults to 1.96.
	Kappa float64
	// MaxFitPoints caps the history used to refit the surrogate (the
	// best points are kept plus a random subsample). Defaults to 400.
	MaxFitPoints int
}

// NewBOGP returns the BO-GP algorithm used throughout the paper's
// experiments.
func NewBOGP() *BayesOpt {
	return &BayesOpt{
		NewRegressor:  func(int64) surrogate.Regressor { return surrogate.NewGP() },
		RegressorName: "GP",
	}
}

// NewBORF returns BO with a random-forest surrogate.
func NewBORF() *BayesOpt {
	return &BayesOpt{
		NewRegressor:  func(seed int64) surrogate.Regressor { return surrogate.NewRandomForest(seed) },
		RegressorName: "RF",
	}
}

// NewBOET returns BO with an extra-trees surrogate.
func NewBOET() *BayesOpt {
	return &BayesOpt{
		NewRegressor:  func(seed int64) surrogate.Regressor { return surrogate.NewExtraTrees(seed) },
		RegressorName: "ET",
	}
}

// NewBOGBRT returns BO with a gradient-boosted quantile-trees surrogate.
func NewBOGBRT() *BayesOpt {
	return &BayesOpt{
		NewRegressor:  func(seed int64) surrogate.Regressor { return surrogate.NewGBRT(seed) },
		RegressorName: "GBRT",
	}
}

// Name implements core.Algorithm.
func (b *BayesOpt) Name() string { return "BO-" + b.RegressorName }

// Optimize implements core.Algorithm.
func (b *BayesOpt) Optimize(ctx context.Context, prob *core.Problem) error {
	if b.NewRegressor == nil {
		panic("opt: BayesOpt requires NewRegressor")
	}
	d := prob.Space.Dim()
	init := b.InitSamples
	if init <= 0 {
		init = 2 * d
		if init < 8 {
			init = 8
		}
	}
	batch := b.Batch
	if batch <= 0 {
		batch = 4
	}
	nCands := b.Candidates
	if nCands <= 0 {
		nCands = 512
	}
	xi := b.Xi
	if xi <= 0 {
		xi = 0.01
	}
	maxFit := b.MaxFitPoints
	if maxFit <= 0 {
		maxFit = 400
	}

	// Initial design: uniform random.
	units := make([][]float64, init)
	for i := range units {
		units[i] = prob.Space.Sample(prob.RNG)
	}
	if _, err := prob.Evaluate(ctx, units); err != nil {
		if done(err) {
			return nil
		}
		return err
	}

	observer := prob.Observer()
	// One regressor instance is reused (re-seeded) across refits so
	// incremental fitting state — the GP's cached distance matrix and
	// Cholesky factors — stays warm; a fit failure discards it.
	var reg surrogate.Regressor
	var mem scratch
	for iter := 0; ; iter++ {
		X, y, ok := mem.trainingSet(prob, maxFit)
		var next [][]float64
		if ok {
			next, reg = b.proposeBatch(prob, observer, &mem, reg, X, y, nCands, batch, xi)
		}
		if next == nil {
			// Surrogate unavailable (too little data, a failed or
			// panicking fit): fall back to random exploration.
			next = b.randomBatch(prob, batch)
		}
		if _, err := prob.Evaluate(ctx, next); err != nil {
			if done(err) {
				return nil
			}
			return err
		}
	}
}

// randomBatch returns batch uniform-random points — the exploration
// fallback used when no surrogate proposal is available.
func (b *BayesOpt) randomBatch(prob *core.Problem, batch int) [][]float64 {
	out := make([][]float64, batch)
	for i := range out {
		out[i] = prob.Space.Sample(prob.RNG)
	}
	return out
}

// proposeBatch refits the surrogate and scores an acquisition batch.
// The caller's regressor is reused (re-seeded) when it supports
// surrogate.Reseeder, preserving incremental fitting caches; otherwise a
// fresh one is built. Both stages run under panic isolation: a
// numerically degenerate history can drive a surrogate into a panic
// (singular matrices, division by zero in tree splits), which must
// degrade to a random-exploration iteration — reported through the
// observer's FaultObserver extension — rather than kill the
// calibration. A nil next (any failure) triggers the caller's random
// fallback, and the failed regressor is dropped rather than reused.
func (b *BayesOpt) proposeBatch(prob *core.Problem, observer core.Observer, mem *scratch, prev surrogate.Regressor, X [][]float64, y []float64, nCands, batch int, xi float64) (next [][]float64, reg surrogate.Regressor) {
	seed := prob.RNG.Int63()
	if rs, ok := prev.(surrogate.Reseeder); ok {
		rs.Reseed(seed)
		reg = prev
	} else {
		reg = b.NewRegressor(seed)
	}
	fitStart := time.Now()
	if err := resilience.Safely(func() error { return reg.Fit(X, y) }); err != nil {
		notePanic(observer, err)
		return nil, nil
	}
	fitDur := time.Since(fitStart)
	if observer == nil {
		if err := resilience.Safely(func() error {
			next = b.proposeByEI(prob, mem, reg, nCands, batch, xi)
			return nil
		}); err != nil {
			return nil, nil
		}
		return next, reg
	}
	observer.SurrogateFitted(len(X), fitDur)
	noteSurrogateDetail(observer, reg)
	timed := &timedRegressor{Regressor: reg}
	acqStart := time.Now()
	if err := resilience.Safely(func() error {
		next = b.proposeByEI(prob, mem, timed, nCands, batch, xi)
		return nil
	}); err != nil {
		notePanic(observer, err)
		return nil, nil
	}
	observer.AcquisitionSolved(nCands, timed.predict, time.Since(acqStart))
	return next, reg
}

// noteSurrogateDetail forwards fit-time performance counters to the
// observer's SurrogateDetailObserver extension when both sides support
// it. The type assertion targets the raw regressor (not the timing
// wrapper, whose embedded interface would hide the extension).
func noteSurrogateDetail(observer core.Observer, reg surrogate.Regressor) {
	fp, ok := reg.(surrogate.FitStatsProvider)
	if !ok {
		return
	}
	so, ok := observer.(core.SurrogateDetailObserver)
	if !ok {
		return
	}
	st := fp.FitStats()
	so.SurrogateFitDetail(core.SurrogateDetail{
		Points:          st.Points,
		PrefixReused:    st.PrefixReused,
		Incremental:     st.Incremental,
		CholeskyRetries: st.CholeskyRetries,
		Jitter:          st.Jitter,
		BufferAllocs:    st.BufferAllocs,
	})
}

// notePanic reports a recovered surrogate panic through the observer's
// FaultObserver extension, when present. Non-panic errors (a Fit that
// returned an error, the historical fallback path) stay silent.
func notePanic(observer core.Observer, err error) {
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		return
	}
	if fo, ok := observer.(core.FaultObserver); ok {
		fo.PanicRecovered("surrogate")
	}
}

// trainingSet extracts a surrogate's training data from the problem
// history (shared by the batch and async BO drivers): infinite losses
// (failed simulations) are clamped to a large penalty so the surrogate
// learns to avoid the region rather than choke. X and y are the
// scratch's own buffers, valid until the next call; the rows of X are
// the history's unit vectors themselves.
func (mem *scratch) trainingSet(prob *core.Problem, maxFit int) (X [][]float64, y []float64, ok bool) {
	hist := prob.History()
	if len(hist) < 3 {
		return nil, nil, false
	}
	worst := math.Inf(-1)
	for _, s := range hist {
		if !math.IsInf(s.Loss, 1) && s.Loss > worst {
			worst = s.Loss
		}
	}
	if math.IsInf(worst, -1) {
		return nil, nil, false // nothing finite yet
	}
	penalty := worst*2 + 1
	if len(hist) > maxFit {
		// Keep the best maxFit/2 and an evenly spaced sample of the rest,
		// preserving coverage of the explored space. The sample picks
		// exactly budget = maxFit − maxFit/2 indices via i·len(rest)/budget
		// (distinct and increasing since len(rest) ≥ budget), so the
		// training set always fills the MaxFitPoints budget — the previous
		// ceil-stride loop under-filled it (e.g. 401 history rows with
		// maxFit 400 yielded only 301 points). Kept rows are re-sorted
		// into history order so consecutive refits share a long common
		// prefix, which the GP's incremental fit exploits.
		idx := mem.idx[:0]
		for i := range hist {
			idx = append(idx, i)
		}
		// (loss, index) is a total order, so the sorted result does not
		// depend on the algorithm.
		slices.SortFunc(idx, func(i, j int) int {
			switch li, lj := hist[i].Loss, hist[j].Loss; {
			case li < lj:
				return -1
			case li > lj:
				return 1
			}
			return i - j
		})
		keepN := maxFit / 2
		kept := append(mem.kept[:0], idx[:keepN]...)
		rest := idx[keepN:]
		budget := maxFit - keepN
		for i := 0; i < budget; i++ {
			kept = append(kept, rest[i*len(rest)/budget])
		}
		sort.Ints(kept)
		sub := mem.sub[:0]
		for _, j := range kept {
			sub = append(sub, hist[j])
		}
		mem.idx, mem.kept, mem.sub = idx, kept, sub
		hist = sub
	}
	X, y = mem.trainX[:0], mem.trainY[:0]
	for _, s := range hist {
		loss := s.Loss
		if math.IsInf(loss, 1) {
			loss = penalty
		}
		// Calibration losses span many orders of magnitude across the
		// search space; fitting the surrogate to log1p(loss) keeps the
		// regression well-conditioned. The transform is monotone, so
		// optimizing expected improvement in log space still targets the
		// minimum.
		X = append(X, s.Unit)
		y = append(y, math.Log1p(loss))
	}
	mem.trainX, mem.trainY = X, y
	return X, y, true
}

// proposeByEI scores a random candidate pool (plus perturbations of the
// incumbent) with expected improvement and returns the top batch.
func (b *BayesOpt) proposeByEI(prob *core.Problem, mem *scratch, reg surrogate.Regressor, nCands, batch int, xi float64) [][]float64 {
	best := prob.Best()
	if best == nil || math.IsInf(best.Loss, 1) {
		// No finite incumbent means EI has no reference value and the
		// incumbent-perturbation candidates have nothing to perturb:
		// degrade to pure random exploration instead of returning nil
		// (which would silently stall the proposal machinery).
		return b.randomBatch(prob, batch)
	}
	cands := mem.scorePool(prob, reg, best.Unit, nCands)
	fBest := math.Log1p(best.Loss) // surrogate space (see trainingSet)
	kappa := b.Kappa
	if kappa <= 0 {
		kappa = 1.96
	}
	ss := mem.ranked[:0]
	for i, c := range cands {
		mean, std := mem.means[i], mem.stds[i]
		var score float64
		if b.Acq == LCB {
			// Negated so that "higher is better" like EI.
			score = -(mean - kappa*std)
		} else {
			score = expectedImprovement(fBest, mean, std, xi)
		}
		ss = append(ss, scored{u: c, ei: score, mean: mean})
	}
	mem.ranked = ss
	// Slot 1: the lowest predicted mean (pure exploitation) — with a
	// deterministic loss, an interpolating surrogate has near-zero EI
	// around the incumbent and would never refine locally without it.
	// Slot 2: a direct sparse perturbation of the incumbent. Remaining
	// slots: top expected improvement.
	out := make([][]float64, 0, batch)
	bestMean := 0
	for i := range ss {
		if ss[i].mean < ss[bestMean].mean {
			bestMean = i
		}
	}
	out = append(out, winner(ss[bestMean].u))
	if batch >= 3 {
		out = append(out, mem.perturbIncumbent(prob, best.Unit))
	}
	sort.Sort(&mem.ranked)
	for i := 0; i < len(ss) && len(out) < batch; i++ {
		out = append(out, winner(ss[i].u))
	}
	return out
}

// expectedImprovement computes EI for minimization.
func expectedImprovement(fBest, mean, std, xi float64) float64 {
	imp := fBest - mean - xi
	if std <= 0 {
		if imp > 0 {
			return imp
		}
		return 0
	}
	z := imp / std
	return imp*stdNormCDF(z) + std*stdNormPDF(z)
}

func stdNormCDF(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }

func stdNormPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
