package opt

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/opt/surrogate"
	"simcal/internal/stats"
)

// fitDetailObserver counts refits and sums their buffer growths through
// the SurrogateDetailObserver extension; its other callbacks are no-ops.
type fitDetailObserver struct {
	fits, bufferAllocs int
}

func (o *fitDetailObserver) CalibrationStarted(core.RunInfo)                         {}
func (o *fitDetailObserver) BatchProposed(int)                                       {}
func (o *fitDetailObserver) EvalCompleted(core.Sample, time.Duration, time.Duration) {}
func (o *fitDetailObserver) IncumbentImproved(core.Sample)                           {}
func (o *fitDetailObserver) SurrogateFitted(int, time.Duration)                      {}
func (o *fitDetailObserver) AcquisitionSolved(int, time.Duration, time.Duration)     {}
func (o *fitDetailObserver) CalibrationFinished(*core.Result)                        {}

func (o *fitDetailObserver) SurrogateFitDetail(d core.SurrogateDetail) {
	o.fits++
	o.bufferAllocs += d.BufferAllocs
}

func frozenClock() time.Time { return time.Unix(0, 0) }

// gpCalibrations are the two GP calibrators, each at one worker, so
// that async-bo consumes in submission order and every run of a case
// is the same run.
var gpCalibrations = []struct {
	name string
	alg  func() core.Algorithm
	seed int64
}{
	{"BO-GP", func() core.Algorithm { return NewBOGP() }, 29},
	{"async-bo", func() core.Algorithm { return NewAsyncBO() }, 31},
}

func runGPCalibration(alg core.Algorithm, seed int64, o core.Observer) (*core.Result, error) {
	c := &core.Calibrator{
		Space:          optSpace3,
		Simulator:      core.Evaluator(sphere3),
		Algorithm:      alg,
		MaxEvaluations: 72,
		Workers:        1,
		Seed:           seed,
		Observer:       o,
		Clock:          frozenClock,
	}
	return c.Run(context.Background())
}

// TestBackToBackCalibrationsReuseGPBuffers: a calibration's GP hands
// its buffers on when the calibration ends, so the same calibration run
// again grows no n×n buffer, and returns the same bits. A collection
// first empties the free list (its entries are weak); the collector is
// then paused so that the entry the first run leaves survives until the
// second takes it.
func TestBackToBackCalibrationsReuseGPBuffers(t *testing.T) {
	for _, tc := range gpCalibrations {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var want *core.Result
			for run := 0; run < 2; run++ {
				o := &fitDetailObserver{}
				res, err := runGPCalibration(tc.alg(), tc.seed, o)
				if err != nil {
					t.Fatal(err)
				}
				if o.fits == 0 {
					t.Fatalf("run %d reported no refit", run)
				}
				t.Logf("run %d: %d buffer allocations over %d fits", run, o.bufferAllocs, o.fits)
				if run == 0 {
					if o.bufferAllocs == 0 {
						t.Fatal("the first run grew no buffer: it did not start from an empty free list")
					}
					want = res
					continue
				}
				if o.bufferAllocs != 0 {
					t.Errorf("the second run grew %d buffers, want 0", o.bufferAllocs)
				}
				if err := core.CheckIdentical(res, want); err != nil {
					t.Errorf("the second run differs from the first: %v", err)
				}
			}
		})
	}
}

// TestConcurrentCalibrationsShareGPBuffers: calibrations that run at
// once pass GP buffers to each other through the one free list, and
// each still returns the bits it returns alone. Meant for -race.
func TestConcurrentCalibrationsShareGPBuffers(t *testing.T) {
	want := make([]*core.Result, len(gpCalibrations))
	for i, tc := range gpCalibrations {
		res, err := runGPCalibration(tc.alg(), tc.seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for k := range gpCalibrations {
					i := (k + g) % len(gpCalibrations) // the goroutines start on different algorithms
					tc := gpCalibrations[i]
					res, err := runGPCalibration(tc.alg(), tc.seed, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if err := core.CheckIdentical(res, want[i]); err != nil {
						t.Errorf("%s, goroutine %d, round %d: %v", tc.name, g, round, err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFailedFitReleasesGP: a GP that refit drops after a failed fit
// hands its buffers on, so the next GP to fit on the sizes the
// dropped one reached grows none.
func TestFailedFitReleasesGP(t *testing.T) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := stats.NewRNG(5)
	X := make([][]float64, 40)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = X[i][0] + X[i][1]
	}
	gp := surrogate.NewGP()
	for i := 0; i < 2; i++ { // once per side of each ping-pong pair
		if err := gp.Fit(X, y); err != nil {
			t.Fatal(err)
		}
	}
	// NaN distances leave no kernel matrix factorizable.
	bad := [][]float64{{math.NaN(), 0}, {0, math.NaN()}, {math.NaN(), math.NaN()}}
	ran := false
	probe := &probeAlg{fn: func(ctx context.Context, prob *core.Problem) error {
		var reg surrogate.Regressor = gp
		ok := new(scratch).refit(prob, NewBOGP().NewRegressor, &reg, bad, []float64{1, 2, 3}, func(surrogate.Regressor) {
			t.Error("refit scored a regressor whose fit failed")
		})
		if ok || reg != nil {
			t.Errorf("a failed fit returned %v and kept regressor %v, want false and none", ok, reg)
		}
		ran = true
		return nil
	}}
	c := &core.Calibrator{Space: optSpace, Simulator: core.Evaluator(sphere), Algorithm: probe, MaxEvaluations: 1, Seed: 3}
	if _, err := c.Run(context.Background()); err == nil || !ran {
		t.Fatalf("probe ran %v, err %v; want a run that evaluated nothing", ran, err)
	}
	next := surrogate.NewGP()
	if err := next.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if n := next.FitStats().BufferAllocs; n != 0 {
		t.Errorf("the GP after a failed one grew %d buffers, want 0: the failed GP's were not released", n)
	}
}
