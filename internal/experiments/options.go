// Package experiments regenerates every table and figure of the paper's
// evaluation: Artifacts lists them (DESIGN.md's per-experiment index
// sets them against the paper), study.go holds the methodology's generic
// drivers, and the per-case-study files instantiate those. Every driver
// takes an Options value that scales the experiment: the defaults run in
// seconds to minutes on a laptop; Full() approaches the paper's scale
// (which used 24–48 h calibration budgets on a 48-core node).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/opt"
	"simcal/internal/resilience"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
)

// Options scales every experiment.
type Options struct {
	// Seed drives all randomness (data generation and search).
	Seed int64
	// Workers is the loss-evaluation parallelism (default GOMAXPROCS).
	Workers int
	// MaxEvals bounds each calibration's loss evaluations — the budget
	// proxy used instead of the paper's wall-clock 24 h/48 h budgets so
	// results stay machine-independent. Budget, when non-zero, applies a
	// wall-clock cap too.
	MaxEvals int
	Budget   time.Duration
	// Restarts re-runs each version calibration with distinct seeds and
	// keeps the lowest training loss, the standard defense against
	// unlucky search trajectories at small budgets. Defaults to 1.
	Restarts int
	// TrainingBudget is the wall-clock budget per calibration in the
	// Figure 3 training-cost study. Figure 3 *must* use a time budget
	// rather than an evaluation count: the paper's effect — larger
	// training datasets can be detrimental — exists precisely because
	// costlier loss evaluations buy fewer optimizer iterations within a
	// fixed time. Defaults to 3 s (the paper used 24 h).
	TrainingBudget time.Duration

	// Case study #1 scale.
	WFApps    []wfgen.App
	WFSizeIdx []int // indices into Table1 sizes (default {0,1,2,3,4})
	WFWorkIdx []int
	WFFootIdx []int
	WFWorkers []int // worker-count grid (default {1,2,4,6})
	Reps      int   // ground-truth repetitions (default 5)

	// Case study #2 scale.
	MPINodes    []int     // node counts standing in for 128/256/512
	MPIMsgSizes []float64 // message sizes (default 2^10…2^22)
	MPIRounds   int       // benchmark rounds per execution

	// Observer, when non-nil, receives lifecycle callbacks from every
	// calibration an experiment runs (see core.Observer and
	// core.NewObsObserver). Nil disables instrumentation.
	Observer core.Observer

	// Jobs is the number of independent calibrations (LoD version × loss
	// × algorithm cells, restarts) run concurrently by the drivers.
	// Values <= 1 run sequentially. Results are identical either way:
	// every cell's seed derives from Seed, never from scheduling order.
	Jobs int
	// Cache, when non-nil, memoizes loss evaluations across every
	// calibration an experiment runs (see the cache package). Each
	// driver keys the cache by its (simulator version, loss, dataset)
	// configuration, so restarts and repeated algorithms share
	// simulations while distinct configurations stay apart.
	Cache *cache.Cache

	// Resilience, when non-nil, runs every loss evaluation of every
	// calibration under its policy: per-attempt timeouts and bounded
	// retries of transient failures (see core.Calibrator.Resilience).
	Resilience *resilience.Policy

	// RunLog, when non-nil, checkpoints completed grid cells so a
	// killed experiment run resumes only its unfinished cells (see
	// OpenRunLog). Drivers that fan out over cells consult it; resumed
	// results are identical to uninterrupted ones because cell seeds
	// derive from Seed, never from scheduling order.
	RunLog *RunLog

	// Remote, when non-nil, supplies the loss evaluator for a simulator
	// spec instead of building it in-process — the hook the distributed
	// evaluation plane plugs in (a dist.Coordinator's Evaluator). A
	// calibration routes through it exactly when a simspec.Spec can
	// describe its training set: a whole generated grid, optionally
	// re-synthesised from the planted calibration — the selection
	// matrices, the convergence curves, every MPI calibration and the
	// algorithm and budget ablations. Calibrations that train on an
	// in-process dataset value (the workflow study's splits and filters,
	// the batch log) or wrap their evaluator (faults) evaluate locally.
	// Because specs are self-describing and workers rebuild simulators
	// from the same code, results are bitwise identical to local
	// evaluation.
	Remote func(spec simspec.Spec) (core.Simulator, error)
}

// simulator resolves the loss evaluator for one calibration cell: the
// Remote hook when set, otherwise the lazily built local evaluator.
func (o Options) simulator(sp simspec.Spec, local func() (core.Simulator, error)) (core.Simulator, error) {
	if o.Remote != nil {
		return o.Remote(sp)
	}
	return local()
}

// cacheKey builds the evaluation-cache identity for one (simulator
// version, loss, dataset) configuration. o.Seed participates because
// every ground-truth dataset is generated from it. The scale fields
// (WFApps, Reps, MPI grids, …) do not: a Cache must not be shared
// across differently scaled Options values.
func (o Options) cacheKey(config string) string {
	return fmt.Sprintf("%s#seed=%d", config, o.Seed)
}

// Default returns the fast configuration used by the benchmark harness:
// reduced workload grids and evaluation budgets that preserve every
// qualitative comparison the paper makes.
func Default() Options {
	return Options{
		Seed:           1,
		Workers:        runtime.GOMAXPROCS(0),
		MaxEvals:       300,
		Restarts:       3,
		TrainingBudget: 3 * time.Second,
		WFApps:         []wfgen.App{wfgen.Epigenomics, wfgen.Seismology},
		WFSizeIdx:      []int{0, 1, 2},
		WFWorkIdx:      []int{0, 3},
		WFFootIdx:      []int{0, 1, 2},
		WFWorkers:      []int{1, 2, 4},
		Reps:           3,
		MPINodes:       []int{8, 16, 32},
		MPIMsgSizes: []float64{
			1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22,
		},
		MPIRounds: 2,
	}
}

// Full returns the paper-scale configuration: the complete Table 1 grid,
// 128/256/512-node MPI runs, the full message-size sweep, five
// repetitions, and a much larger evaluation budget. Expect hours.
func Full() Options {
	o := Default()
	o.MaxEvals = 2000
	o.TrainingBudget = 60 * time.Second
	o.WFApps = wfgen.RealApps
	o.WFSizeIdx = nil // full
	o.WFWorkIdx = nil
	o.WFFootIdx = nil
	o.WFWorkers = []int{1, 2, 4, 6}
	o.Reps = 5
	o.MPINodes = []int{128, 256, 512}
	o.MPIMsgSizes = nil // full sweep
	o.MPIRounds = 4
	return o
}

// calibrator assembles a core.Calibrator from the options. key
// identifies the (simulator version, loss, dataset) configuration for
// the evaluation cache; it is ignored when o.Cache is nil.
func (o Options) calibrator(space core.Space, sim core.Simulator, alg core.Algorithm, seed int64, key string) *core.Calibrator {
	return &core.Calibrator{
		Space:          space,
		Simulator:      sim,
		Algorithm:      alg,
		Budget:         o.Budget,
		MaxEvaluations: o.MaxEvals,
		Workers:        o.Workers,
		Seed:           seed,
		Observer:       o.Observer,
		Cache:          o.Cache,
		CacheKey:       key,
		Resilience:     o.Resilience,
	}
}

// calibrateBest runs o.Restarts calibrations and keeps the best (see
// CalibrateBest). The restarts run sequentially: drivers parallelize at
// the cell level (one RunJobs per driver loop), and nesting a second
// level inside a cell would either oversubscribe or, on a shared pool,
// deadlock. With a cache the restarts share memoized evaluations anyway.
func (o Options) calibrateBest(ctx context.Context, space core.Space, sim core.Simulator, alg core.Algorithm, seed int64, key string) (*core.Result, error) {
	return CalibrateBest(ctx, nil, *o.calibrator(space, sim, alg, seed, key), o.Restarts)
}

// CalibrateBest runs restarts calibrations of base, restart i with seed
// base.Seed + 1000·i, under s (nil runs them sequentially), and returns
// the result with the strictly lowest loss: ties go to the lowest
// restart index, so the winner never depends on scheduling order. The
// restarts share base's cache, if any. restarts <= 1 is base.Run itself;
// with more, a failed restart's error carries RunJobs' "job i:" prefix.
func CalibrateBest(ctx context.Context, s *Scheduler, base core.Calibrator, restarts int) (*core.Result, error) {
	if restarts <= 1 {
		return base.Run(ctx)
	}
	results, err := RunJobs(ctx, s, restarts, func(ctx context.Context, i int) (*core.Result, error) {
		cal := base
		cal.Seed = base.Seed + int64(1000*i)
		return cal.Run(ctx)
	})
	if err != nil {
		return nil, err
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.Best.Loss < best.Best.Loss {
			best = r
		}
	}
	return best, nil
}

// algorithms returns the algorithm set compared in Tables 3 and 5 (the
// paper omits GRID and GRAD from the result tables after preliminary
// experiments showed them uncompetitive; they remain available in opt).
func algorithms() []core.Algorithm {
	return []core.Algorithm{opt.Random{}, opt.NewBOGP()}
}
