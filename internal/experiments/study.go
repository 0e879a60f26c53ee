package experiments

import (
	"context"
	"fmt"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/stats"
)

// The paper's methodology is one procedure applied to several
// simulators: select loss and algorithm by synthetic benchmarking
// (selectionMatrix), watch one calibration converge (convergence),
// calibrate every level-of-detail version and compare post-calibration
// accuracy (study.sweep over study.calibrateAndTest), and set the result
// against uncalibrated spec-sheet parameters (study.baseline). The
// drivers in this file are written once; case1.go, case2.go and case3.go
// instantiate them per case study.

// version is what the generic drivers need from a level-of-detail
// version of any case study's simulator.
type version interface {
	Name() string
	Space() core.Space
}

// study describes one case study to the generic drivers: V is its
// level-of-detail version type, D its dataset type.
type study[V version, D any] struct {
	// cacheKey prefixes the evaluation-cache key of every calibration:
	// <cacheKey>/<training-set key>/<version name>.
	cacheKey string
	// evaluator builds the selected-loss evaluator (the loss the
	// selection matrix picked) for v on a training set.
	evaluator func(o Options, v V, train D) (core.Simulator, error)
	// score simulates the test set with v calibrated at p and returns one
	// percent relative error per compared quantity.
	score func(o Options, v V, p core.Point, test D) ([]float64, error)
	// executions is how many simulated executions score ran — the
	// denominator of VersionAccuracy.SimMicros.
	executions func(test D) int
}

// VersionAccuracy reports the post-calibration accuracy of one simulator
// version (one bar of Figure 2 / Figure 5).
type VersionAccuracy struct {
	Version string
	// AvgError, MinError, MaxError are percent relative errors over the
	// testing dataset (makespans for case 1, transfer rates for case 2,
	// job turnarounds for case 3).
	AvgError, MinError, MaxError float64
	// TrainLoss is the loss achieved on the training dataset.
	TrainLoss float64
	Params    int
	// SimMicros is the wall-clock cost of one simulated execution at
	// this level of detail, in microseconds — the "simulation speed"
	// dimension the paper notes users weigh against accuracy.
	SimMicros float64
}

// calibrateAndTest calibrates one version on train, scores it on test,
// and returns the accuracy together with the calibrated point. dsKey
// names the training dataset for the evaluation cache (calibrations of
// the same version on the same data — e.g. Figure 2 and Baseline 1 —
// legitimately share entries).
func (s study[V, D]) calibrateAndTest(ctx context.Context, o Options, v V, train, test D, dsKey string) (VersionAccuracy, core.Point, error) {
	sim, err := s.evaluator(o, v, train)
	if err != nil {
		return VersionAccuracy{}, nil, err
	}
	r, err := o.calibrateBest(ctx, v.Space(), sim, algorithms()[1],
		o.Seed, o.cacheKey(s.cacheKey+"/"+dsKey+"/"+v.Name()))
	if err != nil {
		return VersionAccuracy{}, nil, err
	}
	simStart := time.Now()
	errs, err := s.score(o, v, r.Best.Point, test)
	if err != nil {
		return VersionAccuracy{}, nil, err
	}
	simMicros := float64(time.Since(simStart).Microseconds()) / float64(s.executions(test))
	return VersionAccuracy{
		Version:   v.Name(),
		AvgError:  stats.Mean(errs),
		MinError:  stats.Min(errs),
		MaxError:  stats.Max(errs),
		TrainLoss: r.Best.Loss,
		Params:    v.Space().Dim(),
		SimMicros: simMicros,
	}, r.Best.Point, nil
}

// LoDResult compares the calibrated level-of-detail versions of one
// simulator (Figure 2, Figure 5, case study 3).
type LoDResult struct {
	Versions []VersionAccuracy
	// Best names the most accurate version.
	Best string
}

// sweep is the paper's central step: calibrate every version on train
// and compare their accuracy on test. scope names the driver in the
// RunLog and in errors.
func (s study[V, D]) sweep(ctx context.Context, o Options, scope string, versions []V, train, test D, dsKey string) (*LoDResult, error) {
	vas, err := RunJobsLogged(ctx, NewScheduler(o.Jobs), o.RunLog, scope, len(versions), func(ctx context.Context, i int) (VersionAccuracy, error) {
		va, _, err := s.calibrateAndTest(ctx, o, versions[i], train, test, dsKey)
		if err != nil {
			return VersionAccuracy{}, fmt.Errorf("%s %s: %w", scope, versions[i].Name(), err)
		}
		return va, nil
	})
	if err != nil {
		return nil, err
	}
	res := &LoDResult{Versions: vas}
	bestAvg := -1.0
	for _, va := range vas {
		if bestAvg < 0 || va.AvgError < bestAvg {
			bestAvg = va.AvgError
			res.Best = va.Version
		}
	}
	return res, nil
}

// BaselineResult is the no-calibration comparison of Sections 5.4 and
// 6.4: one version with parameter values read off hardware
// specifications against the same version after automated calibration.
type BaselineResult struct {
	// SpecError is the average percent error of the spec-based
	// parameters on the testing dataset; CalibratedError is the same
	// version's after calibration.
	SpecError, CalibratedError float64
	// PerGroup breaks SpecError down by application (case 1) or
	// benchmark (case 2).
	PerGroup map[string]float64
}

// baseline calibrates v and sets it against its spec-based
// configuration, whose per-execution percent errors on test are
// specErrs; group names the application or benchmark of execution i.
func (s study[V, D]) baseline(ctx context.Context, o Options, v V, train, test D, dsKey string, specErrs []float64, group func(i int) string) (*BaselineResult, error) {
	va, _, err := s.calibrateAndTest(ctx, o, v, train, test, dsKey)
	if err != nil {
		return nil, err
	}
	out := &BaselineResult{
		SpecError:       stats.Mean(specErrs),
		CalibratedError: va.AvgError,
		PerGroup:        make(map[string]float64),
	}
	per := make(map[string][]float64)
	for i, e := range specErrs {
		per[group(i)] = append(per[group(i)], e)
	}
	for g, errs := range per {
		out.PerGroup[g] = stats.Mean(errs)
	}
	return out, nil
}

// SelectionResult is a synthetic-benchmarking selection matrix (Tables 3
// and 5): for every algorithm × loss-function pair, how far the
// calibration lands from the planted one.
type SelectionResult struct {
	Losses     []string
	Algorithms []string
	// CalibErrors[alg][loss] is the calibration error (percent relative
	// L1 distance to the planted calibration).
	CalibErrors map[string]map[string]float64
	// RateErrors[alg][loss], present only where the case study supplies a
	// second selection column, is the relative average transfer-rate
	// error (fractional, as in the paper's Table 5); it disambiguates
	// bandwidth/factor compensation, as the paper notes.
	RateErrors map[string]map[string]float64 `json:",omitempty"`
	// Winner is the pair the methodology selects: lowest second column
	// where there is one, lowest calibration error otherwise.
	WinnerAlg, WinnerLoss string
}

// selectionCell is one matrix cell. Exported fields: cells round-trip
// through the RunLog as JSON.
type selectionCell struct{ CE, RE float64 }

// selectionMatrix runs the synthetic-benchmarking selection of Sections
// 5.3.2 and 6.3.2: calibrate a simulator against ground truth generated
// from a planted calibration with every algorithm × loss pair. sim
// builds the evaluator of one loss kind on that synthetic data; second,
// when non-nil, scores a calibrated point for the second column.
func selectionMatrix[K fmt.Stringer](ctx context.Context, o Options, scope, cacheKey string, space core.Space, planted core.Point, kinds []K,
	sim func(kind K) (core.Simulator, error), second func(p core.Point) (float64, error)) (*SelectionResult, error) {
	res := &SelectionResult{CalibErrors: make(map[string]map[string]float64)}
	if second != nil {
		res.RateErrors = make(map[string]map[string]float64)
	}
	for _, kind := range kinds {
		res.Losses = append(res.Losses, kind.String())
	}
	algs := algorithms()
	for _, alg := range algs {
		res.Algorithms = append(res.Algorithms, alg.Name())
		res.CalibErrors[alg.Name()] = make(map[string]float64)
		if second != nil {
			res.RateErrors[alg.Name()] = make(map[string]float64)
		}
	}
	nk := len(kinds)
	cells, err := RunJobsLogged(ctx, NewScheduler(o.Jobs), o.RunLog, scope, len(algs)*nk, func(ctx context.Context, i int) (selectionCell, error) {
		ai, ki := i/nk, i%nk
		// Fresh algorithm instance per cell: algorithms may keep
		// internal state and cells run concurrently.
		alg := algorithms()[ai]
		kind := kinds[ki]
		fail := func(err error) (selectionCell, error) {
			return selectionCell{}, fmt.Errorf("%s %s/%s: %w", scope, alg.Name(), kind, err)
		}
		s, err := sim(kind)
		if err != nil {
			return fail(err)
		}
		// Distinct seed per cell: with a shared seed, RAND would
		// evaluate the identical point sequence for every loss and
		// the whole row would collapse to one value.
		cal := o.calibrator(space, s, alg,
			o.Seed+int64(100*ai+ki+1), o.cacheKey(cacheKey+"/"+kind.String()))
		r, err := cal.Run(ctx)
		if err != nil {
			return fail(err)
		}
		cell := selectionCell{CE: core.CalibrationError(space, r.Best.Point, planted)}
		if second != nil {
			if cell.RE, err = second(r.Best.Point); err != nil {
				return fail(err)
			}
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	best := -1.0
	for i, c := range cells {
		alg, kind := algs[i/nk].Name(), kinds[i%nk].String()
		res.CalibErrors[alg][kind] = c.CE
		pick := c.CE
		if second != nil {
			res.RateErrors[alg][kind] = c.RE
			pick = c.RE
		}
		if best < 0 || pick < best {
			best = pick
			res.WinnerAlg, res.WinnerLoss = alg, kind
		}
	}
	return res, nil
}

// ConvergenceResult is a loss-vs-time convergence curve (Figures 1 and
// 4).
type ConvergenceResult struct {
	// Dataset labels the ground truth the curve was calibrated against.
	Dataset string
	Points  []obs.ConvergencePoint
}

// convergence calibrates once with the selected algorithm and traces the
// best-so-far loss over time.
func convergence(ctx context.Context, o Options, space core.Space, sim core.Simulator, cacheKey, dataset string) (*ConvergenceResult, error) {
	r, err := o.calibrator(space, sim, algorithms()[1], o.Seed, o.cacheKey(cacheKey)).Run(ctx)
	if err != nil {
		return nil, err
	}
	out := &ConvergenceResult{Dataset: dataset}
	times, losses := r.LossOverTime()
	for i, l := range losses {
		out.Points = append(out.Points, obs.ConvergencePoint{Elapsed: times[i], Evaluations: i + 1, Loss: l})
	}
	return out, nil
}
