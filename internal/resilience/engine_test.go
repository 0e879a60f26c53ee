package resilience_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/resilience"
)

// A Policy is executed by the calibration core's evaluation engine:
// each test here drives one evaluation through it and reads the
// outcome from the history and the recovery counters.

// onePoint evaluates the same single point until the budget ends.
type onePoint struct{}

func (onePoint) Name() string { return "one-point" }

func (onePoint) Optimize(ctx context.Context, prob *core.Problem) error {
	for {
		if _, err := prob.Evaluate(ctx, [][]float64{{0.5}}); err != nil {
			return err
		}
	}
}

// evaluateOnce runs one evaluation of sim under pol and returns its
// loss and the run's counters.
func evaluateOnce(t *testing.T, pol resilience.Policy, sim core.Evaluator) (float64, map[string]int64) {
	t.Helper()
	if pol.BaseDelay == 0 {
		pol.BaseDelay, pol.MaxDelay = time.Microsecond, time.Microsecond
	}
	reg := obs.NewRegistry()
	c := &core.Calibrator{
		Space:          core.Space{{Name: "x", Kind: core.Continuous, Min: 0, Max: 10}},
		Simulator:      sim,
		Algorithm:      onePoint{},
		MaxEvaluations: 1,
		Workers:        1,
		Seed:           1,
		Observer:       core.NewObsObserver(reg, nil),
		Resilience:     &pol,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 1 {
		t.Fatalf("Evaluations = %d, want 1: retries must not consume budget", res.Evaluations)
	}
	return res.History[0].Loss, reg.Snapshot().Counters
}

func TestExecutorRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	loss, counters := evaluateOnce(t, resilience.Policy{MaxAttempts: 4}, func(context.Context, core.Point) (float64, error) {
		if calls.Add(1) < 3 {
			return 0, resilience.MarkTransient(errors.New("flaky"))
		}
		return 7.5, nil
	})
	if loss != 7.5 || calls.Load() != 3 {
		t.Errorf("loss=%v calls=%d, want 7.5 after 3 calls", loss, calls.Load())
	}
	if got := counters["eval_retries"]; got != 2 {
		t.Errorf("eval_retries = %d, want 2", got)
	}
}

func TestExecutorDeterministicNotRetried(t *testing.T) {
	var calls atomic.Int32
	loss, counters := evaluateOnce(t, resilience.Policy{MaxAttempts: 5}, func(context.Context, core.Point) (float64, error) {
		calls.Add(1)
		return 0, errors.New("bad config")
	})
	if !math.IsInf(loss, 1) || calls.Load() != 1 {
		t.Fatalf("loss=%v calls=%d, want +Inf after one attempt", loss, calls.Load())
	}
	if got := counters["eval_retries"]; got != 0 {
		t.Errorf("eval_retries = %d, want 0", got)
	}
}

func TestExecutorTransientExhaustsAttempts(t *testing.T) {
	var calls atomic.Int32
	loss, counters := evaluateOnce(t, resilience.Policy{MaxAttempts: 3}, func(context.Context, core.Point) (float64, error) {
		calls.Add(1)
		return 0, resilience.MarkTransient(errors.New("still flaky"))
	})
	if !math.IsInf(loss, 1) {
		t.Errorf("loss = %v, want +Inf once the attempts are spent", loss)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want MaxAttempts = 3", calls.Load())
	}
	if got := counters["eval_retries"]; got != 2 {
		t.Errorf("eval_retries = %d, want 2 (between 3 attempts)", got)
	}
}

func TestExecutorRecoversPanics(t *testing.T) {
	var calls atomic.Int32
	loss, counters := evaluateOnce(t, resilience.Policy{MaxAttempts: 5}, func(context.Context, core.Point) (float64, error) {
		calls.Add(1)
		panic("sim exploded")
	})
	if !math.IsInf(loss, 1) {
		t.Errorf("loss = %v, want +Inf", loss)
	}
	if got := counters["eval_panics_recovered"]; got != 1 {
		t.Errorf("eval_panics_recovered = %d, want 1", got)
	}
	if calls.Load() != 1 || counters["eval_retries"] != 0 {
		t.Errorf("%d calls and %d retries: a panic is deterministic and must not be retried",
			calls.Load(), counters["eval_retries"])
	}
}

func TestExecutorTimeoutAbandonsHungAttempt(t *testing.T) {
	var calls atomic.Int32 // the abandoned hung attempt races the retry
	start := time.Now()
	loss, counters := evaluateOnce(t, resilience.Policy{Timeout: 20 * time.Millisecond, MaxAttempts: 2},
		func(ctx context.Context, _ core.Point) (float64, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done() // hang until the attempt deadline
				return 0, ctx.Err()
			}
			return 1.25, nil
		})
	if loss != 1.25 {
		t.Errorf("loss = %v, want the retry's 1.25", loss)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("evaluation took %v: the hung attempt stalled the worker", elapsed)
	}
	if got := counters["eval_timeouts"]; got != 1 {
		t.Errorf("eval_timeouts = %d, want 1", got)
	}
	if got := counters["eval_retries"]; got != 1 {
		t.Errorf("eval_retries = %d, want the timed-out attempt retried", got)
	}
}
