package opt

import (
	"context"
	"sync"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/opt/surrogate"
)

// panickingRegressor blows up in Fit or Predict after a configurable
// number of successful calls, modeling a numerically degenerate
// surrogate.
type panickingRegressor struct {
	inner      surrogate.Regressor
	fitPanics  bool
	predPanics bool
}

func (p *panickingRegressor) Name() string { return "panicky" }

func (p *panickingRegressor) Fit(X [][]float64, y []float64) error {
	if p.fitPanics {
		panic("singular matrix")
	}
	return p.inner.Fit(X, y)
}

func (p *panickingRegressor) Predict(x []float64) (float64, float64) {
	if p.predPanics {
		panic("NaN in kernel")
	}
	return p.inner.Predict(x)
}

func (p *panickingRegressor) PredictMean(X [][]float64, mean, std []float64) {
	for i, x := range X {
		mean[i], std[i] = p.Predict(x)
	}
}

func (p *panickingRegressor) PredictStd([]bool, []float64) {}

// surrogatePanicObserver records PanicRecovered sites; the remaining
// Observer callbacks are no-ops.
type surrogatePanicObserver struct {
	mu     sync.Mutex
	panics []string
}

func (o *surrogatePanicObserver) CalibrationStarted(core.RunInfo)                         {}
func (o *surrogatePanicObserver) BatchProposed(int)                                       {}
func (o *surrogatePanicObserver) EvalCompleted(core.Sample, time.Duration, time.Duration) {}
func (o *surrogatePanicObserver) IncumbentImproved(core.Sample)                           {}
func (o *surrogatePanicObserver) SurrogateFitted(int, time.Duration)                      {}
func (o *surrogatePanicObserver) AcquisitionSolved(int, time.Duration, time.Duration)     {}
func (o *surrogatePanicObserver) CalibrationFinished(*core.Result)                        {}

func (o *surrogatePanicObserver) PanicRecovered(where string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.panics = append(o.panics, where)
}
func (o *surrogatePanicObserver) EvalRetried(int, time.Duration, error) {}
func (o *surrogatePanicObserver) EvalTimedOut(time.Duration)            {}
func (o *surrogatePanicObserver) CheckpointWritten(int)                 {}
func (o *surrogatePanicObserver) CheckpointFailed(error)                {}

// TestSurrogatePanicFallsBackToRandom: a panicking fit or acquisition
// must degrade that iteration to random exploration and report the
// recovery — never kill the calibration.
func TestSurrogatePanicFallsBackToRandom(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() surrogate.Regressor
	}{
		{"fit panics", func() surrogate.Regressor {
			return &panickingRegressor{inner: surrogate.NewGP(), fitPanics: true}
		}},
		{"predict panics", func() surrogate.Regressor {
			return &panickingRegressor{inner: surrogate.NewGP(), predPanics: true}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &surrogatePanicObserver{}
			alg := &BayesOpt{NewRegressor: func(int64) surrogate.Regressor { return tc.mk() }, RegressorName: "panicky"}
			c := &core.Calibrator{
				Space:          optSpace,
				Simulator:      core.Evaluator(sphere),
				Algorithm:      alg,
				MaxEvaluations: 32,
				Workers:        2,
				Seed:           5,
				Observer:       rec,
			}
			res, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Evaluations != 32 {
				t.Errorf("Evaluations = %d, want the full 32 despite surrogate panics", res.Evaluations)
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if len(rec.panics) == 0 {
				t.Fatal("PanicRecovered never fired for the panicking surrogate")
			}
			for _, where := range rec.panics {
				if where != "surrogate" {
					t.Errorf("PanicRecovered site %q, want surrogate", where)
				}
			}
		})
	}
}
