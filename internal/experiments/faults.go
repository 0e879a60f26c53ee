package experiments

import (
	"context"
	"fmt"
	"time"

	"simcal/internal/core"
	"simcal/internal/faultsim"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/resilience"
	"simcal/internal/wfsim"
)

// FaultsRow reports one calibration under an injected-fault regime.
type FaultsRow struct {
	// Rate is the total per-evaluation fault probability injected.
	Rate float64
	// CalibError is the percent relative L1 distance to the planted
	// calibration the faulty run still achieves.
	CalibError float64
	// Evaluations is how many loss evaluations the budget yielded.
	Evaluations int
	// Injected is the fault injector's own log.
	Injected faultsim.Counts
	// PanicsRecovered, Retries, and Timeouts are the runtime's recovery
	// counters (the eval_panics_recovered, eval_retries, and
	// eval_timeouts metrics); they reconcile with Injected.
	PanicsRecovered, Retries, Timeouts int64
}

// FaultsResult measures how calibration quality degrades as the
// simulator gets flakier — the robustness experiment behind the
// fault-tolerant runtime: with panic isolation, timeouts, and retries
// in place, moderate fault rates must cost accuracy gracefully rather
// than abort the run.
type FaultsResult struct {
	Rows []FaultsRow
}

// faultRates are the injected total fault probabilities swept by Faults.
var faultRates = []float64{0, 0.05, 0.10, 0.20}

// Faults runs the fault-injection sweep: plant a known calibration in
// the lowest-detail workflow simulator, then calibrate against it
// through a faultsim.Injector at increasing fault rates, under the
// resilience policy. Every row completes its full evaluation budget —
// the fault tolerance converts injected failures into retries or +Inf
// losses instead of crashes.
func Faults(ctx context.Context, o Options) (*FaultsResult, error) {
	v := wfsim.LowestDetail
	template, err := groundtruth.GenerateWorkflowData(trainingWFOptions(o))
	if err != nil {
		return nil, err
	}
	planted := groundtruth.WorkflowTruthPoint(v)
	syn, err := groundtruth.SyntheticWorkflowData(v, planted, template)
	if err != nil {
		return nil, err
	}
	policy := o.Resilience
	if policy == nil {
		policy = &resilience.Policy{
			Timeout:     250 * time.Millisecond,
			MaxAttempts: 100, // transients must never exhaust into +Inf
			BaseDelay:   100 * time.Microsecond,
			MaxDelay:    5 * time.Millisecond,
		}
	}
	rows, err := RunJobsLogged(ctx, o.Jobs, o.RunLog, "faults", len(faultRates), func(ctx context.Context, i int) (FaultsRow, error) {
		rate := faultRates[i]
		inj := faultsim.Wrap(loss.WFEvaluator(v, loss.WFL1, syn), faultsim.Config{
			Seed: o.Seed + int64(i+1),
			// Split the total rate over the fault kinds, weighted toward
			// the cheap ones (hangs cost a full timeout each).
			PanicRate:     rate * 0.30,
			TransientRate: rate * 0.40,
			NaNRate:       rate * 0.20,
			HangRate:      rate * 0.10,
		})
		// A dedicated registry per rate keeps the recovery counters
		// attributable to this row.
		reg := obs.NewRegistry()
		cal := o.calibrator(v.Space(), inj, opt.Random{}, o.Seed+int64(100*(i+1)), "")
		cal.Observer = core.NewObsObserver(reg, nil)
		cal.Resilience = policy
		cal.Cache = nil // a memoized evaluation would skip its injected fault
		r, err := cal.Run(ctx)
		if err != nil {
			return FaultsRow{}, fmt.Errorf("faults rate=%g: %w", rate, err)
		}
		return FaultsRow{
			Rate:            rate,
			CalibError:      core.CalibrationError(v.Space(), r.Best.Point, planted),
			Evaluations:     r.Evaluations,
			Injected:        inj.Counts(),
			PanicsRecovered: reg.Counter("eval_panics_recovered").Value(),
			Retries:         reg.Counter("eval_retries").Value(),
			Timeouts:        reg.Counter("eval_timeouts").Value(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &FaultsResult{Rows: rows}, nil
}
