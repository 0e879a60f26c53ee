package opt

import (
	"context"
	"math"
	"testing"

	"simcal/internal/core"
)

// probeAlg runs a closure as a core.Algorithm, giving tests direct
// access to the *core.Problem an algorithm sees.
type probeAlg struct {
	fn func(ctx context.Context, prob *core.Problem) error
}

func (p *probeAlg) Name() string { return "probe" }
func (p *probeAlg) Optimize(ctx context.Context, prob *core.Problem) error {
	return p.fn(ctx, prob)
}

// TestTrainingSetFillsMaxFitBudget: with 401 history rows and
// MaxFitPoints 400, the subsample must contain exactly 400 distinct
// rows. The previous ceil-stride selection kept only ~301, silently
// starving the surrogate of a quarter of its budget.
func TestTrainingSetFillsMaxFitBudget(t *testing.T) {
	const maxFit = 400
	ran := false
	probe := &probeAlg{fn: func(ctx context.Context, prob *core.Problem) error {
		units := make([][]float64, 401)
		for i := range units {
			units[i] = prob.Space.Sample(prob.RNG)
		}
		if _, err := prob.Evaluate(ctx, units); err != nil {
			return err
		}
		X, y, ok := new(scratch).trainingSet(prob, maxFit)
		if !ok {
			t.Error("trainingSet reported no data on a 401-row history")
		}
		if len(X) != maxFit || len(y) != maxFit {
			t.Errorf("trainingSet returned %d rows for maxFit=%d history=401, want exactly %d", len(X), maxFit, maxFit)
		}
		// Rows must be distinct history entries.
		seen := make(map[string]bool, len(X))
		for _, u := range X {
			k := fingerprint(u)
			if seen[k] {
				t.Error("trainingSet returned a duplicate history row")
			}
			seen[k] = true
		}
		// And ordered as in history, so consecutive refits share a long
		// common prefix for the GP's incremental fit.
		hist := prob.History()
		pos := make(map[string]int, len(hist))
		for i, s := range hist {
			pos[fingerprint(s.Unit)] = i
		}
		last := -1
		for _, u := range X {
			i := pos[fingerprint(u)]
			if i <= last {
				t.Error("trainingSet rows are not in history order")
				break
			}
			last = i
		}
		ran = true
		return nil
	}}
	c := &core.Calibrator{
		Space:          optSpace,
		Simulator:      core.Evaluator(sphere),
		Algorithm:      probe,
		MaxEvaluations: 401,
		Workers:        4,
		Seed:           11,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("probe did not run")
	}
}

// TestProposeByEIInfIncumbentFallsBackToRandom: when every loss so far
// is +Inf the incumbent is +Inf and EI has no reference value; the
// proposal must degrade to random exploration instead of returning nil.
// The regressor is never consulted on this path, so nil is a valid
// stand-in.
func TestProposeByEIInfIncumbentFallsBackToRandom(t *testing.T) {
	b := &BayesOpt{}
	allInf := func(_ context.Context, _ core.Point) (float64, error) {
		return math.Inf(1), nil
	}
	ran := false
	probe := &probeAlg{fn: func(ctx context.Context, prob *core.Problem) error {
		units := make([][]float64, 8)
		for i := range units {
			units[i] = prob.Space.Sample(prob.RNG)
		}
		if _, err := prob.Evaluate(ctx, units); err != nil {
			return err
		}
		next := b.proposeByEI(prob, new(scratch), nil, 64, 4, 0.01)
		if len(next) != 4 {
			t.Errorf("proposeByEI with +Inf incumbent returned %d proposals, want 4 random ones", len(next))
		}
		for _, u := range next {
			if len(u) != prob.Space.Dim() {
				t.Errorf("proposal has dim %d, want %d", len(u), prob.Space.Dim())
			}
		}
		ran = true
		return nil
	}}
	c := &core.Calibrator{
		Space:          optSpace,
		Simulator:      core.Evaluator(allInf),
		Algorithm:      probe,
		MaxEvaluations: 8,
		Workers:        2,
		Seed:           12,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("probe did not run")
	}
}

// TestBOGPCompletesOnAllInfLosses: end to end, a simulator that always
// fails must not stall or kill BO-GP — the full budget is spent on
// random exploration.
func TestBOGPCompletesOnAllInfLosses(t *testing.T) {
	allInf := func(_ context.Context, _ core.Point) (float64, error) {
		return math.Inf(1), nil
	}
	res := calibrate(t, NewBOGP(), core.Evaluator(allInf), 40, 13)
	if res.Evaluations != 40 {
		t.Fatalf("BO-GP spent %d evaluations on all-+Inf losses, want 40", res.Evaluations)
	}
}

// TestBOGPHistoryReproducible: two same-seed BO-GP runs must produce
// bitwise-identical histories. This is the end-to-end determinism the
// concurrent fitting and batched prediction must preserve (and what
// checkpoint resume replays against).
func TestBOGPHistoryReproducible(t *testing.T) {
	run := func() *core.Result {
		return calibrate(t, NewBOGP(), rosenbrockish, 90, 17)
	}
	a, b := run(), run()
	if len(a.History) != len(b.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		sa, sb := a.History[i], b.History[i]
		if sa.Loss != sb.Loss {
			t.Fatalf("eval %d: loss %v vs %v", i, sa.Loss, sb.Loss)
		}
		for j := range sa.Unit {
			if sa.Unit[j] != sb.Unit[j] {
				t.Fatalf("eval %d unit[%d]: %v vs %v", i, j, sa.Unit[j], sb.Unit[j])
			}
		}
	}
}
