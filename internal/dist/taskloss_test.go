package dist

import (
	"context"
	"math"
	"testing"

	"simcal/internal/core"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/opt"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// TestTaskAwareLossAcrossFleetBitwise carries the case studies' real
// simulators with a non-default loss — workflow L3 (per-task errors)
// and MPI L3 — across the wire: every other bitwise fleet test runs a
// toy simulator or loss L1. Each spec is calibrated serially
// in-process, then on a 2-worker loopback fleet whose workers rebuild
// the evaluator from the canonical spec, once through a batch
// algorithm's Evaluate and once through async-bo, whose recorded
// completion order is replayed in-process. All of them must agree with
// the serial run bit for bit.
func TestTaskAwareLossAcrossFleetBitwise(t *testing.T) {
	specs := map[string]simspec.Spec{
		"wf-L3": simspec.ForWF(wfsim.HighestDetail, loss.WFL3, groundtruth.WFOptions{
			Apps:    []wfgen.App{wfgen.Epigenomics},
			SizeIdx: []int{1}, WorkIdx: []int{1}, FootIdx: []int{1},
			Workers: []int{2}, Reps: 2, Seed: 3,
		}, false),
		"mpi-L3": simspec.ForMPI(mpisim.HighestDetail, loss.MPIL3, groundtruth.MPIOptions{
			Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.BiRandom},
			Nodes:      []int{4}, MsgSizes: []float64{1 << 10, 1 << 16},
			Rounds: 2, Reps: 2, Seed: 3,
		}, 2, false),
	}
	const evals = 18
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			wire, err := sp.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			space, err := sp.Space()
			if err != nil {
				t.Fatal(err)
			}
			local, err := sp.Build()
			if err != nil {
				t.Fatal(err)
			}
			calibrate := func(sim core.Simulator, alg core.Algorithm) *core.Result {
				t.Helper()
				cal := core.Calibrator{
					Space: space, Simulator: sim, Algorithm: alg,
					MaxEvaluations: evals, Workers: 4, Seed: 11, Clock: frozenClock,
				}
				res, err := cal.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if math.IsInf(res.Best.Loss, 1) {
					t.Fatal("every evaluation failed: nothing was compared")
				}
				return res
			}
			asyncBO := func(replay []int) *opt.AsyncBayesOpt {
				alg := opt.NewAsyncBO()
				alg.InitSamples = 6
				alg.Replay = replay
				return alg
			}
			c := startCluster(t, NewLoopback(), "", CoordinatorConfig{Name: name},
				[]Factory{simspec.BuildSimulator, simspec.BuildSimulator}, 2)
			defer c.stop()
			fleet := c.coord.Evaluator(wire)

			t.Run("Evaluate", func(t *testing.T) {
				serial := calibrate(local, opt.Random{Batch: 5})
				assertSameHistory(t, calibrate(fleet, opt.Random{Batch: 5}), serial)
			})
			t.Run("async-bo", func(t *testing.T) {
				recorder := asyncBO(nil)
				recorded := calibrate(fleet, recorder)
				order := recorder.CompletionOrder()
				if len(order) != evals {
					t.Fatalf("recorded order has %d entries, want %d", len(order), evals)
				}
				assertSameHistory(t, calibrate(local, asyncBO(order)), recorded)
			})
		})
	}
}
