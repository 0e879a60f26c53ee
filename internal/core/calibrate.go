package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"simcal/internal/cache"
	"simcal/internal/resilience"
	"simcal/internal/stats"
)

// Simulator is the framework's simulator abstraction, mirroring the
// paper's Python Simulator class: Run invokes the (use-case-specific)
// simulator for every ground-truth data point under the given parameter
// values and returns the scalar loss computed by the user's loss
// function.
type Simulator interface {
	Run(ctx context.Context, p Point) (float64, error)
}

// ConcurrencyHinter is optionally implemented by simulators whose
// useful evaluation parallelism is not bounded by local CPU — e.g. the
// distributed evaluation plane, where a lease occupies a remote worker,
// not a local core. When the Calibrator's Workers field is unset, a
// positive hint replaces the GOMAXPROCS default so batches are wide
// enough to keep the whole remote pool busy. An explicit Workers value
// always wins; hints never lower the default.
type ConcurrencyHinter interface {
	// EvalConcurrency returns the number of loss evaluations the
	// simulator can usefully run at once; values < 1 are ignored.
	EvalConcurrency() int
}

// Evaluator is the functional form of Simulator.
type Evaluator func(ctx context.Context, p Point) (float64, error)

// Run implements Simulator.
func (e Evaluator) Run(ctx context.Context, p Point) (float64, error) { return e(ctx, p) }

// Sample records one loss evaluation.
type Sample struct {
	// Unit is the position in the unit cube.
	Unit []float64
	// Point is the decoded parameter assignment.
	Point Point
	// Loss is the evaluated loss value.
	Loss float64
	// Elapsed is the wall-clock time since the calibration started at
	// which this evaluation completed. It drives the loss-vs-time curves
	// (Figures 1 and 4).
	Elapsed time.Duration
}

// Problem is what an optimization algorithm sees: the space, a way to
// evaluate batches of candidates in parallel, an RNG, and budget state.
type Problem struct {
	Space Space
	RNG   *stats.RNG

	sim            Simulator
	workers        int
	maxEvals       int
	start          time.Time
	obs            Observer
	fobs           FaultObserver
	cache          *cache.Cache
	cacheKey       string
	now            func() time.Time
	exec           *resilience.Executor
	replay         []Sample
	replayOrder    []int
	replayInflight []AsyncPending
	journal        *calJournal // driver goroutine only
	async          *AsyncRun

	mu      sync.Mutex
	history []Sample
	best    *Sample
	evals   int
}

// clock returns the current time from the injected clock (tests freeze
// it to make elapsed fields reproducible) or the wall clock.
func (p *Problem) clock() time.Time {
	if p.now != nil {
		return p.now()
	}
	return time.Now()
}

// Observer returns the observer attached to the calibration, or nil
// when instrumentation is disabled. Algorithms use it to report their
// internal stages (surrogate fits, acquisition solves).
func (p *Problem) Observer() Observer { return p.obs }

// ErrBudgetExhausted is returned by Evaluate when the evaluation budget
// (count or context deadline) has been consumed. Algorithms should treat
// it as a signal to return their best-so-far.
var ErrBudgetExhausted = errors.New("core: calibration budget exhausted")

// Evaluate runs the loss at every unit-cube position in units, at most
// Workers at a time, and returns the samples in input order. It is a
// barrier on the evaluation engine (see AsyncRun): submit each unit as
// a slot frees up, then consume the submissions in submission order. It
// returns ErrBudgetExhausted when no budget remains before any
// evaluation starts; batches are truncated to the remaining evaluation
// budget, and when the context expires mid-batch, dispatch stops and the
// evaluations that did complete are recorded in history and returned
// alongside ErrBudgetExhausted. Failed evaluations yield +Inf loss, so
// brittle simulator configurations are simply avoided rather than
// aborting calibration.
func (p *Problem) Evaluate(ctx context.Context, units [][]float64) ([]Sample, error) {
	if ctx.Err() != nil {
		return nil, ErrBudgetExhausted
	}
	a := p.engine()
	if room := a.room(); len(units) > room {
		units = units[:max(room, 0)]
	}
	if len(units) == 0 {
		return nil, ErrBudgetExhausted
	}
	if p.obs != nil {
		p.obs.BatchProposed(len(units))
	}
	proposedAt := p.clock()
	// Only this goroutine submits, so the batch is the sequence numbers
	// [first, first+n).
	first, n := a.nextSeq, 0
	for n < len(units) && a.waitSlot(ctx) {
		a.start(ctx, units[n], proposedAt)
		n++
	}
	out := make([]Sample, 0, n)
	for seq := first; seq < first+n; seq++ {
		pe := a.take(seq)
		if pe == nil {
			continue // aborted by budget expiry: the rest of the batch is still recorded, in input order
		}
		c, err := a.consume(pe)
		if err != nil {
			return nil, err
		}
		out = append(out, c.Sample)
	}
	// The journal's sync boundary is the batch.
	p.syncJournal()
	if n < len(units) || ctx.Err() != nil {
		return out, ErrBudgetExhausted
	}
	return out, nil
}

// unitsEqual reports bitwise equality of two unit vectors.
func unitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// syncJournal makes the journal durable up to this consumption
// boundary: the end of a batch for Evaluate, each consumed completion
// for Next/NextSeq. Replayed evaluations add no lines (the file already
// holds them), so they sync nothing.
func (p *Problem) syncJournal() {
	if p.journal != nil && !p.journal.sync(p.Evaluations()) {
		p.journal = nil
	}
}

// simRun invokes the simulator once under panic isolation: a panicking
// simulator configuration becomes a *resilience.PanicError (classified
// Deterministic, hence memoized as +Inf) instead of killing the
// calibration. Panic isolation is always on — it costs one deferred
// recover per evaluation and removes the single worst failure mode.
func (p *Problem) simRun(ctx context.Context, pt Point) (float64, error) {
	var loss float64
	err := resilience.Safely(func() error {
		var e error
		loss, e = p.sim.Run(ctx, pt)
		return e
	})
	if err != nil {
		var pe *resilience.PanicError
		if errors.As(err, &pe) && p.fobs != nil {
			p.fobs.PanicRecovered("simulator")
		}
		return 0, err
	}
	return loss, nil
}

// evalOnce runs one evaluation through the fault-tolerance executor
// (timeouts, retries) when a resilience policy is attached.
func (p *Problem) evalOnce(ctx context.Context, pt Point) (float64, error) {
	if p.exec == nil {
		return p.simRun(ctx, pt)
	}
	return p.exec.Do(ctx, func(ctx context.Context) (float64, error) { return p.simRun(ctx, pt) })
}

// runSim evaluates the loss at one decoded point, through the
// calibration's evaluation cache when one is attached. A cache hit
// returns the memoized loss of the first evaluation of that point
// (hit=true) without invoking the simulator; concurrent requests for an
// in-flight point share its single simulation. Deterministic simulator
// failures (including recovered panics) are memoized as +Inf so they
// are avoided without re-running; transient failures that exhausted
// their retries surface +Inf to the caller uncached, because the same
// point may well succeed later;
// budget-expiry aborts propagate their error uncached.
func (p *Problem) runSim(ctx context.Context, u []float64, pt Point) (loss float64, hit bool, err error) {
	if p.cache == nil {
		loss, err = p.evalOnce(ctx, pt)
		return loss, false, err
	}
	return p.cache.Do(ctx, cache.NewKey(p.cacheKey, u), func() (float64, error) {
		l, e := p.evalOnce(ctx, pt)
		if e != nil {
			if ctx.Err() != nil {
				return 0, e // aborted mid-run: not a memoizable outcome
			}
			if resilience.Classify(e) == resilience.Deterministic {
				return math.Inf(1), nil // fails every time: memoize the +Inf
			}
			return 0, e // transient: record +Inf, don't memoize
		}
		if math.IsNaN(l) || math.IsInf(l, -1) {
			return math.Inf(1), nil
		}
		return l, nil
	})
}

// record appends one sample to history and reports whether it improved
// the incumbent.
func (p *Problem) record(s Sample) (improved bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.history = append(p.history, s)
	p.evals++
	if p.best == nil || s.Loss < p.best.Loss {
		c := s
		p.best = &c
		improved = true
	}
	return improved
}

// Best returns a copy of the incumbent sample, or nil before any
// evaluation. The copy is deep (unit vector and point included) so
// callers cannot mutate calibration state through it.
func (p *Problem) Best() *Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.best == nil {
		return nil
	}
	c := *p.best
	c.Unit = append([]float64(nil), p.best.Unit...)
	c.Point = make(Point, len(p.best.Point))
	for k, v := range p.best.Point {
		c.Point[k] = v
	}
	return &c
}

// Evaluations returns the number of completed loss evaluations.
func (p *Problem) Evaluations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evals
}

// History returns the evaluations completed so far, in completion order.
func (p *Problem) History() []Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Sample(nil), p.history...)
}

// Algorithm is an iterative calibration algorithm. Optimize must keep
// proposing and evaluating candidates until Evaluate returns
// ErrBudgetExhausted (or the context expires), then return normally; the
// framework extracts the incumbent from the problem.
type Algorithm interface {
	Name() string
	Optimize(ctx context.Context, prob *Problem) error
}

// Result is the outcome of a calibration run.
type Result struct {
	// Best is the lowest-loss sample found.
	Best Sample
	// History lists all evaluations in completion order.
	History []Sample
	// Evaluations counts completed loss evaluations.
	Evaluations int
	// Elapsed is the total wall-clock calibration time.
	Elapsed time.Duration
	// Algorithm is the name of the algorithm used.
	Algorithm string
}

// LossOverTime returns (elapsed, best-so-far loss) pairs, one per
// evaluation, for convergence plots like the paper's Figures 1 and 4.
func (r *Result) LossOverTime() (times []time.Duration, losses []float64) {
	best := math.Inf(1)
	for _, s := range r.History {
		if s.Loss < best {
			best = s.Loss
		}
		times = append(times, s.Elapsed)
		losses = append(losses, best)
	}
	return times, losses
}

// Calibrator configures and runs an automated calibration, the
// framework's top-level entry point.
type Calibrator struct {
	// Space declares the parameters to calibrate and their ranges.
	Space Space
	// Simulator evaluates the loss for a parameter assignment.
	Simulator Simulator
	// Algorithm is the search strategy (see the opt package).
	Algorithm Algorithm
	// Budget bounds wall-clock time; zero means no time bound.
	Budget time.Duration
	// MaxEvaluations bounds the number of loss evaluations; zero means
	// no count bound. At least one of Budget and MaxEvaluations must be
	// set.
	MaxEvaluations int
	// Workers is the parallelism for loss evaluation; zero defaults to
	// GOMAXPROCS.
	Workers int
	// Seed makes the calibration reproducible.
	Seed int64
	// Observer, when non-nil, receives calibration lifecycle callbacks
	// (see Observer and NewObsObserver). Nil disables instrumentation at
	// zero cost.
	Observer Observer
	// Cache, when non-nil, memoizes loss evaluations: re-visited points
	// return the original loss without re-simulating, and concurrent
	// evaluations of the same point share one simulation. Cache hits
	// still count against the evaluation budget and are recorded in
	// history with their own elapsed time, so a cached run produces the
	// same Best and loss sequence as an uncached one. The cache may be
	// shared across calibrations of the same simulator (restarts,
	// repeated seeds); CacheKey keeps different simulators apart.
	Cache *cache.Cache
	// CacheKey uniquely identifies the (simulator, loss function,
	// dataset) configuration among all calibrations sharing Cache.
	// Required when Cache is set: an empty key would let unrelated
	// simulators exchange loss values.
	CacheKey string
	// Resilience, when non-nil, runs every loss evaluation under the
	// fault-tolerance executor: per-attempt timeouts and bounded retries
	// of transient failures with seeded backoff. Retries happen inside
	// one evaluation, so they never consume evaluation budget. Nil keeps
	// only the always-on panic isolation.
	Resilience *resilience.Policy
	// Checkpoint, when set, is the path of the calibration's evaluation
	// journal, synced at every consumption boundary so a kill loses no
	// consumed evaluation. A fresh run replaces the file; a run with
	// Resume appends the lines it lacks. Journal failures are reported
	// through the observer and never abort the run.
	Checkpoint string
	// Resume, when non-nil, continues a previous run from its journal
	// (LoadCheckpoint): the algorithm is replayed, the journaled
	// consumptions are served instead of simulated, and the elapsed axis
	// continues from Resume.Elapsed. Its identity must match the run's;
	// results are bitwise-identical to an uninterrupted run (elapsed
	// fields excepted, unless Clock is injected).
	Resume *Checkpoint
	// Clock, when non-nil, replaces the wall clock for elapsed-time
	// measurement. Tests freeze it to make Sample.Elapsed reproducible;
	// nil uses time.Now.
	Clock func() time.Time
}

// Run executes the calibration and returns the result. The configured
// budget is enforced through the context passed to evaluations. Budget
// expiry is normal completion (the partial result is returned);
// cancellation of the caller's own context is not — Run then returns
// ctx.Err() so a Ctrl-C'd calibration is distinguishable from one that
// ran out its budget.
func (c *Calibrator) Run(ctx context.Context) (*Result, error) {
	if err := c.Space.Validate(); err != nil {
		return nil, err
	}
	if c.Simulator == nil {
		return nil, errors.New("core: Calibrator requires a Simulator")
	}
	if c.Algorithm == nil {
		return nil, errors.New("core: Calibrator requires an Algorithm")
	}
	if c.Budget <= 0 && c.MaxEvaluations <= 0 {
		return nil, errors.New("core: Calibrator requires a Budget or MaxEvaluations")
	}
	if c.Cache != nil && c.CacheKey == "" {
		return nil, errors.New("core: Calibrator with a Cache requires a CacheKey")
	}
	names := make([]string, len(c.Space))
	for i, spec := range c.Space {
		names[i] = spec.Name
	}
	id := journalHeader{Kind: journalKind, Algorithm: c.Algorithm.Name(), Seed: c.Seed, Space: names}
	if err := c.validateResume(id); err != nil {
		return nil, err
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if h, ok := c.Simulator.(ConcurrencyHinter); ok {
			if hint := h.EvalConcurrency(); hint > workers {
				workers = hint
			}
		}
	}
	now := c.Clock
	if now == nil {
		now = time.Now
	}
	parent := ctx
	if budget := c.remainingBudget(); budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	var fobs FaultObserver
	if c.Observer != nil {
		fobs, _ = c.Observer.(FaultObserver)
	}
	prob := &Problem{
		Space:    c.Space,
		RNG:      stats.NewRNG(c.Seed),
		sim:      c.Simulator,
		workers:  workers,
		maxEvals: c.MaxEvaluations,
		start:    now(),
		obs:      c.Observer,
		fobs:     fobs,
		cache:    c.Cache,
		cacheKey: c.CacheKey,
		now:      c.Clock,
	}
	if c.Resilience != nil {
		prob.exec = resilience.NewExecutor(*c.Resilience, resilience.Config{Seed: c.Seed, Events: fobs})
	}
	if c.Resume != nil {
		prob.replay = c.Resume.Samples
		prob.replayOrder = c.Resume.Order
		if len(prob.replayOrder) == 0 {
			// Consumed in submission order, as a batch algorithm consumes.
			prob.replayOrder = make([]int, len(prob.replay))
			for i := range prob.replayOrder {
				prob.replayOrder[i] = i
			}
		}
		prob.replayInflight = c.Resume.InFlight
		// Continue the elapsed axis where the snapshot left off: new
		// samples stamp Elapsed = (now - start) = snapshot offset + time
		// since resume.
		prob.start = prob.start.Add(-c.Resume.Elapsed)
	}
	if c.Checkpoint != "" {
		prob.journal = openCalJournal(c.Checkpoint, id, c.Resume != nil, fobs)
		defer func() { prob.journal.close(prob.Evaluations()) }()
	}
	if c.Observer != nil {
		c.Observer.CalibrationStarted(RunInfo{
			Algorithm:      c.Algorithm.Name(),
			Space:          names,
			Seed:           c.Seed,
			Budget:         c.Budget,
			MaxEvaluations: c.MaxEvaluations,
			Workers:        workers,
		})
	}
	err := c.Algorithm.Optimize(ctx, prob)
	if perr := parent.Err(); perr != nil {
		// The caller's own context was canceled (not the budget timeout,
		// which only cancels the derived ctx): this run was aborted, not
		// completed, and must not masquerade as a successful partial
		// result.
		return nil, perr
	}
	if err != nil && !errors.Is(err, ErrBudgetExhausted) && !errors.Is(err, context.DeadlineExceeded) {
		return nil, fmt.Errorf("core: algorithm %s: %w", c.Algorithm.Name(), err)
	}
	best := prob.Best()
	if best == nil {
		return nil, errors.New("core: no evaluation completed within budget")
	}
	res := &Result{
		Best:        *best,
		History:     prob.History(),
		Evaluations: prob.Evaluations(),
		Elapsed:     now().Sub(prob.start),
		Algorithm:   c.Algorithm.Name(),
	}
	if c.Observer != nil {
		c.Observer.CalibrationFinished(res)
	}
	return res, nil
}

// validateResume rejects a Resume checkpoint that does not belong to
// this calibration's (algorithm, seed, space) identity: replaying it
// would diverge from the original run and silently corrupt the search.
func (c *Calibrator) validateResume(id journalHeader) error {
	r := c.Resume
	if r == nil {
		return nil
	}
	if err := id.matches(r.Algorithm, r.Seed, r.Space); err != nil {
		return fmt.Errorf("core: resume checkpoint %w", err)
	}
	if len(r.Order) > 0 && len(r.Order) != len(r.Samples) {
		return fmt.Errorf("core: resume checkpoint completion order has %d entries for %d samples",
			len(r.Order), len(r.Samples))
	}
	return nil
}

// remainingBudget returns the wall-clock budget to enforce for this
// run: the configured Budget, reduced by the elapsed time a resumed
// snapshot already consumed. A resumed run whose budget is (nearly)
// spent still gets a small grace window so the replay — which runs at
// memory speed, not simulator speed — can complete and surface the
// snapshot's partial result instead of failing with zero evaluations.
func (c *Calibrator) remainingBudget() time.Duration {
	if c.Budget <= 0 {
		return 0
	}
	budget := c.Budget
	if c.Resume != nil {
		budget -= c.Resume.Elapsed
		if grace := time.Second; budget < grace {
			budget = grace
		}
	}
	return budget
}
