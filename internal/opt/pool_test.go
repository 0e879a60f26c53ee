package opt

import (
	"context"
	"math"
	"testing"

	"simcal/internal/core"
	"simcal/internal/opt/surrogate"
)

// inPool reports whether u is one of the scratch's candidate rows.
func inPool(mem *scratch, u []float64) bool {
	for _, c := range mem.cands {
		if &c[0] == &u[0] {
			return true
		}
	}
	return false
}

// TestProposalsDoNotAliasThePool: the candidate pool is rewritten in
// place every iteration, so nothing that outlives an iteration may
// point into it. Scribbling over the whole scratch right after a
// proposal must leave the proposals, and the history they become,
// untouched — and the next fit must still recognise the previous
// training rows by pointer (PrefixReused > 0), which it cannot if
// history rows were ever rewritten. The async driver's single winners
// (kept as in-flight fantasy rows) are held to the same rule.
func TestProposalsDoNotAliasThePool(t *testing.T) {
	b := NewBOGP()
	ran := false
	probe := &probeAlg{fn: func(ctx context.Context, prob *core.Problem) error {
		units := make([][]float64, 12)
		for i := range units {
			units[i] = prob.Space.Sample(prob.RNG)
		}
		if _, err := prob.Evaluate(ctx, units); err != nil {
			return err
		}
		var mem scratch
		var reg surrogate.Regressor
		scribble := func() {
			for i := range mem.flat {
				mem.flat[i] = math.NaN()
			}
			for i := range mem.trainX {
				mem.trainX[i] = nil
			}
			for i := range mem.trainY {
				mem.trainY[i] = math.NaN()
			}
		}
		for iter := 0; iter < 3; iter++ {
			X, y, ok := mem.trainingSet(prob, 400)
			if !ok {
				t.Fatal("no training set")
			}
			rows := len(X)
			var next [][]float64
			if !mem.refit(prob, b.NewRegressor, &reg, X, y, func(reg surrogate.Regressor) {
				next = b.proposeByEI(prob, &mem, reg, 4)
			}) {
				t.Fatalf("iteration %d: refit failed", iter)
			}
			if len(next) != 4 {
				t.Fatalf("iteration %d: %d proposals, want 4", iter, len(next))
			}
			if st := reg.(surrogate.FitStatsProvider).FitStats(); iter > 0 && st.PrefixReused != rows-4 {
				t.Errorf("iteration %d: fit reused %d of %d rows, want the %d already fitted", iter, st.PrefixReused, rows, rows-4)
			}
			want := make([][]float64, len(next))
			for i, u := range next {
				if inPool(&mem, u) {
					t.Errorf("iteration %d: proposal %d points into the candidate pool", iter, i)
				}
				want[i] = append([]float64(nil), u...)
			}
			before := prob.History()
			scribble()
			if _, err := prob.Evaluate(ctx, next); err != nil {
				return err
			}
			after := prob.History()
			for i, h := range after {
				ref := h.Unit
				if i < len(before) {
					if &before[i].Unit[0] != &h.Unit[0] {
						t.Fatalf("history row %d moved", i)
					}
				} else {
					ref = want[i-len(before)]
				}
				for j := range ref {
					if math.Float64bits(h.Unit[j]) != math.Float64bits(ref[j]) || math.IsNaN(h.Unit[j]) {
						t.Fatalf("iteration %d: history row %d coordinate %d = %v, want %v", iter, i, j, h.Unit[j], ref[j])
					}
				}
			}
		}
		a := NewAsyncBO()
		pick := a.pickCandidate(prob, &mem, reg, prob.Best(), 2)
		if inPool(&mem, pick) {
			t.Error("async winner points into the candidate pool")
		}
		if u := mem.perturbIncumbent(prob, prob.Best().Unit); inPool(&mem, u) {
			t.Error("incumbent perturbation points into the candidate pool")
		}
		ran = true
		return nil
	}}
	c := &core.Calibrator{
		Space:          optSpace3,
		Simulator:      core.Evaluator(sphere3),
		Algorithm:      probe,
		MaxEvaluations: 24,
		Workers:        2,
		Seed:           19,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("probe did not run")
	}
}
