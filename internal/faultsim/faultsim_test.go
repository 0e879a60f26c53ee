package faultsim

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/resilience"
)

var faultSpace = core.Space{
	{Name: "x", Kind: core.Continuous, Min: 0, Max: 10},
	{Name: "y", Kind: core.Continuous, Min: 0, Max: 10},
}

func quadratic(ctx context.Context, p core.Point) (float64, error) {
	dx, dy := p["x"]-3, p["y"]-7
	return dx*dx + dy*dy, nil
}

// TestInjectedFaultsMatchRecoveryCounters is the acceptance test for
// fault injection: run a calibration through an Injector and assert the
// runtime's recovery counters reconcile exactly with the injector's own
// fault log — every panic recovered, every hang timed out, every
// transient (and every timeout, which classifies as transient) retried.
// Run under -race: the injector, the engine applying the policy, and the
// observer are all exercised concurrently.
func TestInjectedFaultsMatchRecoveryCounters(t *testing.T) {
	inj := Wrap(core.Evaluator(quadratic), Config{
		Seed:          99,
		PanicRate:     0.05,
		HangRate:      0.03,
		TransientRate: 0.07,
		NaNRate:       0.05,
	})
	reg := obs.NewRegistry()
	c := &core.Calibrator{
		Space:          faultSpace,
		Simulator:      inj,
		Algorithm:      opt.Random{Batch: 8},
		MaxEvaluations: 96,
		Workers:        4,
		Seed:           7,
		Observer:       core.NewObsObserver(reg, nil),
		Resilience: &resilience.Policy{
			Timeout:     75 * time.Millisecond,
			MaxAttempts: 1000, // transient faults always retried, never exhausted
			BaseDelay:   time.Microsecond,
			MaxDelay:    10 * time.Microsecond,
		},
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 96 {
		t.Errorf("Evaluations = %d, want the full 96 despite faults", res.Evaluations)
	}

	counts := inj.Counts()
	if counts.Total() == 0 {
		t.Fatal("injector raised no faults; rates or RNG are broken")
	}
	t.Logf("injected: %+v", counts)

	if got := reg.Counter("eval_panics_recovered").Value(); got != counts.Panics {
		t.Errorf("eval_panics_recovered = %d, injector logged %d panics", got, counts.Panics)
	}
	if got := reg.Counter("eval_timeouts").Value(); got != counts.Hangs {
		t.Errorf("eval_timeouts = %d, injector logged %d hangs", got, counts.Hangs)
	}
	// Each transient failure and each timed-out hang triggers exactly
	// one retry (MaxAttempts is far above any plausible streak).
	if got, want := reg.Counter("eval_retries").Value(), counts.Transients+counts.Hangs; got != want {
		t.Errorf("eval_retries = %d, want transients+hangs = %d", got, want)
	}

	// NaN losses surface as +Inf samples, never as NaN.
	inf := 0
	for _, s := range res.History {
		if math.IsNaN(s.Loss) {
			t.Fatalf("NaN loss leaked into history: %+v", s)
		}
		if math.IsInf(s.Loss, 1) {
			inf++
		}
	}
	// Every injected panic ends its evaluation at +Inf. (NaN faults may
	// coincide with retried attempts, so only panics give a firm floor.)
	if int64(inf) < counts.Panics {
		t.Errorf("%d +Inf samples, want at least the %d panicked evaluations", inf, counts.Panics)
	}
}

// TestFaultSequenceDeterministic: with one worker, the same seed must
// inject the identical fault sequence and produce identical results.
func TestFaultSequenceDeterministic(t *testing.T) {
	run := func() (Counts, *core.Result) {
		inj := Wrap(core.Evaluator(quadratic), Config{
			Seed:          5,
			PanicRate:     0.10,
			TransientRate: 0.10,
			NaNRate:       0.05,
		})
		c := &core.Calibrator{
			Space:          faultSpace,
			Simulator:      inj,
			Algorithm:      opt.Random{Batch: 4},
			MaxEvaluations: 48,
			Workers:        1,
			Seed:           3,
			Resilience: &resilience.Policy{
				MaxAttempts: 1000,
				BaseDelay:   time.Microsecond,
				MaxDelay:    10 * time.Microsecond,
			},
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return inj.Counts(), res
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 {
		t.Errorf("fault counts differ across identical runs: %+v vs %+v", c1, c2)
	}
	if r1.Best.Loss != r2.Best.Loss || len(r1.History) != len(r2.History) {
		t.Errorf("results differ: best %v vs %v, %d vs %d samples",
			r1.Best.Loss, r2.Best.Loss, len(r1.History), len(r2.History))
	}
	for i := range r1.History {
		if r1.History[i].Loss != r2.History[i].Loss {
			t.Fatalf("history[%d].Loss: %v vs %v", i, r1.History[i].Loss, r2.History[i].Loss)
		}
	}
}

// TestPersistentPointsFailDeterministically: a persistently broken
// point fails identically on every evaluation, independent of the RNG
// stream — so memoizing its +Inf loss is sound.
func TestPersistentPointsFailDeterministically(t *testing.T) {
	inj := Wrap(core.Evaluator(quadratic), Config{Seed: 1, PersistentFrac: 1.0})
	p := core.Point{"x": 1.5, "y": 2.5}
	for i := 0; i < 3; i++ {
		_, err := inj.Run(context.Background(), p)
		if !errors.Is(err, ErrPersistent) {
			t.Fatalf("call %d: err = %v, want ErrPersistent", i, err)
		}
		if resilience.Classify(err) != resilience.Deterministic {
			t.Fatalf("persistent fault classified %v, want Deterministic", resilience.Classify(err))
		}
	}
	if got := inj.Counts().Persistents; got != 3 {
		t.Errorf("Persistents = %d, want 3", got)
	}

	// Frac 0 never trips the persistent path.
	clean := Wrap(core.Evaluator(quadratic), Config{Seed: 1})
	if _, err := clean.Run(context.Background(), p); err != nil {
		t.Fatalf("clean injector failed: %v", err)
	}
}

// TestPointHashStable: the persistent-point hash is a pure function of
// the point's values.
func TestPointHashStable(t *testing.T) {
	a := pointHash01(core.Point{"x": 1.25, "y": 3.5})
	b := pointHash01(core.Point{"y": 3.5, "x": 1.25})
	if a != b {
		t.Errorf("hash depends on construction order: %v vs %v", a, b)
	}
	c := pointHash01(core.Point{"x": 1.25, "y": 3.50001})
	if a == c {
		t.Errorf("distinct points collided at %v", a)
	}
	if a < 0 || a >= 1 {
		t.Errorf("hash %v outside [0,1)", a)
	}
}

// TestLatencySpikesDelayButSucceed: latency faults slow an evaluation
// without failing it.
func TestLatencySpikesDelayButSucceed(t *testing.T) {
	inj := Wrap(core.Evaluator(quadratic), Config{
		Seed:        2,
		LatencyRate: 1.0,
		Latency:     5 * time.Millisecond,
	})
	start := time.Now()
	loss, err := inj.Run(context.Background(), core.Point{"x": 3, "y": 7})
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 {
		t.Errorf("loss = %v, want 0 at the optimum", loss)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("evaluation took %v, want >= the 5ms injected latency", d)
	}
	if got := inj.Counts().Latencies; got != 1 {
		t.Errorf("Latencies = %d, want 1", got)
	}
}

// TestHangRespectsContext: a hang unblocks promptly when its context is
// canceled rather than holding the worker for MaxHang.
func TestHangRespectsContext(t *testing.T) {
	inj := Wrap(core.Evaluator(quadratic), Config{Seed: 3, HangRate: 1.0})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := inj.Run(ctx, core.Point{"x": 1, "y": 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("hang held for %v after cancel", d)
	}
}
