package opt

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"simcal/internal/core"
	"simcal/internal/opt/surrogate"
	"simcal/internal/resilience"
)

// AsyncBayesOpt is worker-aware asynchronous Bayesian optimization: the
// moment a worker slot frees up it proposes exactly one new candidate,
// conditioning the surrogate on in-flight evaluations via constant-liar
// imputation (each unfinished point is imputed the incumbent's loss, so
// the acquisition avoids re-proposing next to work already running),
// instead of waiting for a batch barrier. Imputed fantasy rows sit
// after the completed-history prefix in the training set, so the GP's
// incremental Cholesky extension absorbs them cheaply; they are
// retracted implicitly on the next refit once the real loss lands.
//
// Determinism: proposals are a pure function of (seed, history in
// consumption order, in-flight set in submission order). A live run
// consumes completions in fleet arrival order and records that order
// (CompletionOrder, checkpoints, the dist_async_completion trace
// event); re-running with the recorded order in Replay — or resuming
// from an async checkpoint — forces consumption in the same order and
// reproduces the run bitwise.
type AsyncBayesOpt struct {
	// NewRegressor builds a fresh surrogate for each refit. Required.
	NewRegressor func(seed int64) surrogate.Regressor
	// RegressorName labels the surrogate ("GP", ...). Informational.
	RegressorName string
	// InitSamples is the number of random submissions before the first
	// surrogate fit. Defaults to max(2·dim, 8).
	InitSamples int
	// MaxInFlight caps concurrently running evaluations. Defaults to
	// the problem's worker parallelism (the fleet capacity in
	// distributed runs).
	MaxInFlight int
	// Candidates is the size of the candidate pool scored per proposal.
	// Defaults to 512.
	Candidates int
	// Xi is the expected-improvement exploration margin. Defaults to
	// 0.01.
	Xi float64
	// MaxFitPoints caps the completed history used per refit (fantasy
	// rows ride on top). Defaults to 400.
	MaxFitPoints int
	// Replay, when non-empty, forces completions to be consumed in this
	// recorded order (submission sequence numbers), reproducing a prior
	// run bitwise. Empty uses the resume checkpoint's order (if any),
	// then live arrival order.
	Replay []int

	mu       sync.Mutex
	recorded []int
}

// NewAsyncBO returns asynchronous BO with the GP surrogate — the
// configuration registered as "async-bo" in ByName.
func NewAsyncBO() *AsyncBayesOpt {
	return &AsyncBayesOpt{
		NewRegressor:  func(int64) surrogate.Regressor { return surrogate.NewGP() },
		RegressorName: "GP",
	}
}

// Name implements core.Algorithm.
func (b *AsyncBayesOpt) Name() string { return "async-bo" }

// CompletionOrder returns the completion order of the most recent
// Optimize call: each consumed evaluation's submission sequence number,
// index-aligned with the run's history. Feeding it back via Replay
// reproduces that run bitwise.
func (b *AsyncBayesOpt) CompletionOrder() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.recorded...)
}

// flight tracks one in-flight submission on the driver side.
type flight struct {
	seq        int
	unit       []float64
	fantasized bool // included as a constant-liar row in ≥1 fit
}

// Optimize implements core.Algorithm.
func (b *AsyncBayesOpt) Optimize(ctx context.Context, prob *core.Problem) error {
	if b.NewRegressor == nil {
		panic("opt: AsyncBayesOpt requires NewRegressor")
	}
	run, err := prob.Async()
	if err != nil {
		return err
	}
	d := prob.Space.Dim()
	init := b.InitSamples
	if init <= 0 {
		init = 2 * d
		if init < 8 {
			init = 8
		}
	}
	width := b.MaxInFlight
	if width <= 0 {
		width = prob.Workers()
	}
	if width < 1 {
		width = 1
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
	forced := b.Replay
	if len(forced) == 0 {
		forced = prob.ReplayOrder()
	}
	observer := prob.Observer()
	aobs, _ := observer.(core.AsyncObserver)

	var reg surrogate.Regressor
	var mem scratch
	var inflight []flight
	var order []int
	defer func() {
		b.mu.Lock()
		b.recorded = order
		b.mu.Unlock()
	}()
	submitted, processed := 0, 0
	// Wall-clock stamps of worker slots freed by a consumed completion
	// and not yet refilled; the proposal that refills the oldest one
	// reports the gap as worker idle time. Measurement only — never
	// part of the determinism contract.
	var freed []time.Time
	stopSubmit := false
	for {
		for !stopSubmit && len(inflight) < width {
			u, fantasies := b.proposeOne(prob, observer, &mem, &reg, inflight, submitted, init, nCands, xi, maxFit)
			seq, err := run.Submit(ctx, u)
			if err != nil {
				// Submit only refuses for budget exhaustion; stop
				// refilling and drain what is still in flight.
				stopSubmit = true
				break
			}
			if fantasies > 0 {
				for i := range inflight {
					inflight[i].fantasized = true
				}
			}
			inflight = append(inflight, flight{seq: seq, unit: u})
			submitted++
			var idle time.Duration
			if len(freed) > 0 {
				idle = time.Since(freed[0])
				freed = freed[1:]
			}
			if aobs != nil {
				aobs.AsyncProposed(seq, fantasies, idle)
			}
		}
		if len(inflight) == 0 {
			return nil
		}
		var c core.AsyncCompletion
		var cerr error
		if processed < len(forced) {
			c, cerr = run.NextSeq(ctx, forced[processed])
		} else {
			c, cerr = run.Next(ctx)
		}
		if cerr != nil {
			if done(cerr) {
				return nil
			}
			return cerr
		}
		retracted := false
		for i := range inflight {
			if inflight[i].seq == c.Seq {
				retracted = inflight[i].fantasized
				inflight = append(inflight[:i], inflight[i+1:]...)
				break
			}
		}
		order = append(order, c.Seq)
		freed = append(freed, time.Now())
		if aobs != nil {
			aobs.AsyncCompletionConsumed(c.Seq, processed, c.Sample.Loss, retracted)
		}
		processed++
	}
}

// proposeOne picks the next candidate. The first InitSamples proposals
// are uniform random; afterwards the surrogate is refit on the
// completed history plus one constant-liar fantasy row per in-flight
// evaluation, and a single acquisition winner is returned. fantasies
// reports how many liar rows the fit conditioned on (0 when the
// proposal did not come from a fantasy-conditioned fit). Any surrogate
// failure degrades to random exploration, exactly like the batch path.
func (b *AsyncBayesOpt) proposeOne(prob *core.Problem, observer core.Observer, mem *scratch, regp *surrogate.Regressor, inflight []flight, submitted, init, nCands int, xi float64, maxFit int) (u []float64, fantasies int) {
	if submitted < init {
		return prob.Space.Sample(prob.RNG), 0
	}
	// Rotate proposal roles so a steady stream of single proposals
	// keeps the batch path's exploit/refine/explore mix: every 4th
	// proposal exploits the predicted minimum, the next is a direct
	// sparse perturbation of the incumbent (the embedded (1+1)-style
	// local search), the rest take the top acquisition score.
	role := submitted % 4
	best := prob.Best()
	if role == 1 && best != nil && !math.IsInf(best.Loss, 1) {
		return mem.perturbIncumbent(prob, best.Unit), 0
	}
	X, y, ok := mem.trainingSet(prob, maxFit)
	if !ok || best == nil || math.IsInf(best.Loss, 1) {
		return prob.Space.Sample(prob.RNG), 0
	}
	// Constant-liar imputation: in-flight points enter the training set
	// after the completed-history prefix (submission order, stable
	// slices) with the incumbent's loss as their imputed value. The GP
	// reuses the factorization of the shared prefix and absorbs the
	// liar rows through its incremental Cholesky extension; the next
	// refit drops them again (retraction) once real losses land.
	liar := math.Log1p(best.Loss)
	for i := range inflight {
		X = append(X, inflight[i].unit)
		y = append(y, liar)
		fantasies++
	}
	mem.trainX, mem.trainY = X, y // keep the growth for the next proposal
	seed := prob.RNG.Int63()
	var reg surrogate.Regressor
	if rs, ok := (*regp).(surrogate.Reseeder); ok {
		rs.Reseed(seed)
		reg = *regp
	} else {
		reg = b.NewRegressor(seed)
	}
	fitStart := time.Now()
	if err := resilience.Safely(func() error { return reg.Fit(X, y) }); err != nil {
		notePanic(observer, err)
		*regp = nil
		return prob.Space.Sample(prob.RNG), 0
	}
	*regp = reg
	if observer != nil {
		observer.SurrogateFitted(len(X), time.Since(fitStart))
		noteSurrogateDetail(observer, reg)
	}
	scorer := reg
	var timed *timedRegressor
	if observer != nil {
		timed = &timedRegressor{Regressor: reg}
		scorer = timed
	}
	acqStart := time.Now()
	var pick []float64
	if err := resilience.Safely(func() error {
		pick = b.pickCandidate(prob, mem, scorer, best, role, nCands, xi)
		return nil
	}); err != nil {
		notePanic(observer, err)
		*regp = nil
		return prob.Space.Sample(prob.RNG), 0
	}
	if observer != nil {
		observer.AcquisitionSolved(nCands, timed.predict, time.Since(acqStart))
	}
	return pick, fantasies
}

// pickCandidate scores a candidate pool (the same pool as the batch
// path's) and returns a copy of one winner: the lowest predicted mean
// for the exploit role, the highest expected improvement otherwise.
func (b *AsyncBayesOpt) pickCandidate(prob *core.Problem, mem *scratch, reg surrogate.Regressor, best *core.Sample, role, nCands int, xi float64) []float64 {
	cands := mem.scorePool(prob, reg, best.Unit, nCands)
	means, stds := mem.means, mem.stds
	if role == 0 {
		bestMean := 0
		for i := range means {
			if means[i] < means[bestMean] {
				bestMean = i
			}
		}
		return winner(cands[bestMean])
	}
	fBest := math.Log1p(best.Loss)
	bestEI, bestIdx := math.Inf(-1), 0
	for i := range cands {
		if ei := expectedImprovement(fBest, means[i], stds[i], xi); ei > bestEI {
			bestEI, bestIdx = ei, i
		}
	}
	return winner(cands[bestIdx])
}

// sortedAlgorithmNames returns ByName's vocabulary in sorted order for
// error messages and usage text.
func sortedAlgorithmNames() []string {
	names := append([]string(nil), AlgorithmNames...)
	sort.Strings(names)
	return names
}
