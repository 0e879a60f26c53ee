package core_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/opt"
)

// callbackSim is an AsyncSimulator that answers each evaluation inside
// its RunAsync call. Its blocking Run fails the test: the engine
// delivers through RunAsync, with a cache attached too.
type callbackSim struct {
	t     *testing.T
	calls atomic.Int64
}

func (s *callbackSim) Run(context.Context, core.Point) (float64, error) {
	s.t.Error("the engine called the blocking Run of an AsyncSimulator")
	return 0, errors.New("blocking Run called")
}

func (s *callbackSim) RunAsync(_ context.Context, p core.Point, done func(float64, error)) {
	s.calls.Add(1)
	dx, dy := p["x"]-0.3, p["y"]-1
	done(dx*dx+dy*dy+math.Sin(p["x"]*p["y"])*0.25, nil)
}

// TestCachedCalibrationDeliversThroughCallbacks: a cached calibration
// on an AsyncSimulator gives the uncached run's bits, for a batch
// algorithm and for async-bo, and a second pass on the same cache is
// all hits and never reaches the simulator.
func TestCachedCalibrationDeliversThroughCallbacks(t *testing.T) {
	space := core.Space{
		{Name: "x", Kind: core.Continuous, Min: 0, Max: 1},
		{Name: "y", Kind: core.Exponential, Min: -4, Max: 4},
	}
	const evals = 24
	for _, name := range []string{"GRID", "async-bo"} {
		t.Run(name, func(t *testing.T) {
			run := func(sim core.Simulator, c *cache.Cache) *core.Result {
				t.Helper()
				alg, err := opt.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				cal := &core.Calibrator{
					Space: space, Simulator: sim, Algorithm: alg,
					MaxEvaluations: evals, Workers: 4, Seed: 3,
				}
				if c != nil {
					cal.Cache, cal.CacheKey = c, "bowl"
				}
				res, err := cal.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(&callbackSim{t: t}, nil)
			sim := &callbackSim{t: t}
			cc := cache.New(nil)
			for pass := 1; pass <= 2; pass++ {
				calls, hits := sim.calls.Load(), cc.Stats().Hits
				got := run(sim, cc)
				if len(got.History) != len(want.History) {
					t.Fatalf("pass %d: %d samples, uncached run %d", pass, len(got.History), len(want.History))
				}
				for i, s := range got.History {
					w := want.History[i]
					if math.Float64bits(s.Loss) != math.Float64bits(w.Loss) || len(s.Unit) != len(w.Unit) {
						t.Fatalf("pass %d: sample %d loss %v, uncached run %v", pass, i, s.Loss, w.Loss)
					}
					for d := range s.Unit {
						if math.Float64bits(s.Unit[d]) != math.Float64bits(w.Unit[d]) {
							t.Fatalf("pass %d: sample %d unit %v, uncached run %v", pass, i, s.Unit, w.Unit)
						}
					}
				}
				if pass == 2 {
					if n := sim.calls.Load() - calls; n != 0 {
						t.Errorf("second pass reached the simulator %d times, want 0", n)
					}
					if n := cc.Stats().Hits - hits; n != evals {
						t.Errorf("second pass: %d of %d evaluations were hits", n, evals)
					}
				}
			}
		})
	}
}
