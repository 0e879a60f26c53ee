// Package opt implements the calibration algorithms the paper's
// framework offers: exhaustive grid search (GRID), random search (RAND),
// restarted gradient descent (GRAD), and Bayesian optimization (BO) with
// pluggable surrogate regressors (GP, RF, ET, GBRT — see the surrogate
// package).
//
// All algorithms speak the core.Algorithm interface: they propose
// batches of unit-cube candidates and feed them to core.Problem.Evaluate
// until the calibration budget (wall-clock or evaluation count) runs out.
package opt

import (
	"context"
	"errors"

	"simcal/internal/core"
)

// done reports whether err signals the end of the calibration budget.
func done(err error) bool {
	return errors.Is(err, core.ErrBudgetExhausted) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// Random is the RAND algorithm: uniform sampling of the search space.
type Random struct {
	// Batch is the number of points evaluated per iteration (in
	// parallel). Defaults to 8.
	Batch int
}

// Name implements core.Algorithm.
func (Random) Name() string { return "RAND" }

// Optimize implements core.Algorithm.
func (r Random) Optimize(ctx context.Context, prob *core.Problem) error {
	b := r.Batch
	if b <= 0 {
		b = 8
	}
	for {
		units := make([][]float64, b)
		for i := range units {
			units[i] = prob.Space.Sample(prob.RNG)
		}
		if _, err := prob.Evaluate(ctx, units); err != nil {
			if done(err) {
				return nil
			}
			return err
		}
	}
}

// Grid is the GRID algorithm: an exhaustive sweep over a lattice that is
// refined every iteration through the nesting resolutions 2, 3, 5, 9,
// 17, … (2^k + 1). With res-1 a power of two, every coarser lattice
// point i/(res-1) is bitwise-exactly a point of every finer lattice, so
// each lattice is a superset of the previous one and lattice points
// already evaluated at a coarser resolution are genuinely skipped.
// (Doubling res instead — the obvious refinement — only shares the two
// endpoints between resolutions, re-evaluating nearly everything.)
type Grid struct {
	// Batch is the number of lattice points evaluated per call. Defaults
	// to 16.
	Batch int
}

// Name implements core.Algorithm.
func (Grid) Name() string { return "GRID" }

// Optimize implements core.Algorithm.
func (g Grid) Optimize(ctx context.Context, prob *core.Problem) error {
	batch := g.Batch
	if batch <= 0 {
		batch = 16
	}
	d := prob.Space.Dim()
	seen := make(map[string]bool)
	for res := 2; ; res = res*2 - 1 {
		// Lattice with res points per dimension: u = i/(res-1).
		idx := make([]int, d)
		var pending [][]float64
		flush := func() error {
			if len(pending) == 0 {
				return nil
			}
			_, err := prob.Evaluate(ctx, pending)
			pending = nil
			return err
		}
		for {
			u := make([]float64, d)
			for j, i := range idx {
				u[j] = float64(i) / float64(res-1)
			}
			key := fingerprint(u)
			if !seen[key] {
				seen[key] = true
				pending = append(pending, u)
				if len(pending) >= batch {
					if err := flush(); err != nil {
						if done(err) {
							return nil
						}
						return err
					}
				}
			}
			// Advance the mixed-radix counter.
			k := 0
			for ; k < d; k++ {
				idx[k]++
				if idx[k] < res {
					break
				}
				idx[k] = 0
			}
			if k == d {
				break
			}
		}
		if err := flush(); err != nil {
			if done(err) {
				return nil
			}
			return err
		}
		if res > 1<<20 {
			return nil // lattice finer than any plausible budget
		}
	}
}

// fingerprint returns a hashable key for a lattice position.
func fingerprint(u []float64) string {
	b := make([]byte, 0, len(u)*8)
	for _, v := range u {
		// 2^-21 resolution is far below any grid this search reaches.
		q := int64(v * (1 << 21))
		for s := 0; s < 8; s++ {
			b = append(b, byte(q>>(8*s)))
		}
	}
	return string(b)
}

// GradientDescent is the GRAD algorithm: repeatedly sample a random
// starting point and run projected gradient descent with numerical
// gradients and backtracking line search until convergence, then restart.
type GradientDescent struct {
	// Step is the initial step size in unit-cube units. Defaults to 0.1.
	Step float64
	// Tol stops a descent when the improvement falls below it. Defaults
	// to 1e-4.
	Tol float64
	// FD is the finite-difference probe distance. Defaults to 1e-3.
	FD float64
	// MaxSteps bounds one descent run. Defaults to 50.
	MaxSteps int
}

// Name implements core.Algorithm.
func (GradientDescent) Name() string { return "GRAD" }

// Optimize implements core.Algorithm.
func (g GradientDescent) Optimize(ctx context.Context, prob *core.Problem) error {
	step0 := g.Step
	if step0 <= 0 {
		step0 = 0.1
	}
	tol := g.Tol
	if tol <= 0 {
		tol = 1e-4
	}
	fd := g.FD
	if fd <= 0 {
		fd = 1e-3
	}
	maxSteps := g.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 50
	}
	d := prob.Space.Dim()
	for {
		x := prob.Space.Sample(prob.RNG)
		samples, err := prob.Evaluate(ctx, [][]float64{x})
		if err != nil {
			if done(err) {
				return nil
			}
			return err
		}
		if len(samples) == 0 {
			// Evaluate truncated the batch to the remaining evaluation
			// budget and returned short with a nil error: nothing is left.
			return nil
		}
		fx := samples[0].Loss
		for stepIdx := 0; stepIdx < maxSteps; stepIdx++ {
			// Forward-difference gradient: d probes evaluated in parallel.
			probes := make([][]float64, d)
			for j := 0; j < d; j++ {
				p := append([]float64(nil), x...)
				if p[j]+fd <= 1 {
					p[j] += fd
				} else {
					p[j] -= fd
				}
				probes[j] = p
			}
			ps, err := prob.Evaluate(ctx, probes)
			if err != nil {
				if done(err) {
					return nil
				}
				return err
			}
			if len(ps) < d {
				// The probe batch was truncated to the remaining budget:
				// a partial gradient is useless and the next Evaluate
				// would end the run anyway.
				return nil
			}
			grad := make([]float64, d)
			for j := 0; j < d; j++ {
				h := probes[j][j] - x[j]
				grad[j] = (ps[j].Loss - fx) / h
			}
			// Backtracking line search along -grad, evaluated as a batch.
			var cands [][]float64
			step := step0
			for k := 0; k < 5; k++ {
				c := make([]float64, d)
				for j := range c {
					c[j] = clamp01(x[j] - float64(step*grad[j]))
				}
				cands = append(cands, c)
				step /= 4
			}
			cs, err := prob.Evaluate(ctx, cands)
			if err != nil {
				if done(err) {
					return nil
				}
				return err
			}
			if len(cs) == 0 {
				return nil // line-search batch fully truncated: budget gone
			}
			// cs may still be shorter than cands (truncation mid-batch);
			// ranging over cs keeps bestIdx a valid index into cands.
			bestIdx, bestLoss := -1, fx
			for i, s := range cs {
				if s.Loss < bestLoss {
					bestIdx, bestLoss = i, s.Loss
				}
			}
			if bestIdx < 0 || fx-bestLoss < tol*(1+fx) {
				break // converged (or no descent direction)
			}
			x = cands[bestIdx]
			fx = bestLoss
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
