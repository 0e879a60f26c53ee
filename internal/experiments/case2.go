package experiments

import (
	"context"
	"fmt"

	"simcal/internal/core"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/simspec"
	"simcal/internal/stats"
)

// p2pBenchmarks are the training benchmarks of Section 6.4 (Stencil is
// held out for the generalization study).
var p2pBenchmarks = []mpi.Benchmark{mpi.PingPing, mpi.PingPong, mpi.BiRandom}

// mpiSet is an MPI ground-truth dataset together with the generation
// options that describe it to a remote worker: every MPI dataset is a
// whole generated grid, so every MPI calibration can run on a fleet.
type mpiSet struct {
	gt groundtruth.MPIOptions
	ds *groundtruth.MPIDataset
}

// mpiTrainData generates the MPI dataset of benchmarks at the given node
// counts over the options' message sizes.
func mpiTrainData(o Options, benchmarks []mpi.Benchmark, nodes []int) (mpiSet, error) {
	gt := groundtruth.MPIOptions{
		Benchmarks: benchmarks,
		Nodes:      nodes,
		MsgSizes:   o.MPIMsgSizes,
		Rounds:     o.MPIRounds,
		Reps:       o.Reps,
		Seed:       o.Seed,
	}
	ds, err := groundtruth.GenerateMPIData(gt)
	return mpiSet{gt: gt, ds: ds}, err
}

// mpiStudy is case study #2, MPI point-to-point benchmarks: versions are
// scored by percent transfer-rate error.
var mpiStudy = study[mpisim.Version, mpiSet]{
	cacheKey: "mpi/L1",
	evaluator: func(o Options, v mpisim.Version, train mpiSet) (core.Simulator, error) {
		return o.simulator(simspec.ForMPI(v, loss.MPIL1, train.gt, o.MPIRounds, false),
			func() (core.Simulator, error) { return loss.MPIEvaluator(v, loss.MPIL1, train.ds, o.MPIRounds), nil })
	},
	score: func(o Options, v mpisim.Version, p core.Point, test mpiSet) ([]float64, error) {
		return loss.MPIRateErrors(v, v.DecodeConfig(p), test.ds, o.MPIRounds)
	},
	executions: func(test mpiSet) int { return len(test.ds.Measurements) },
}

// Table5 runs the synthetic-benchmarking selection of Section 6.3.2 on
// the highest-detail MPI simulator, reporting both calibration error and
// transfer-rate error — the paper's Table 5.
func Table5(ctx context.Context, o Options) (*SelectionResult, error) {
	v := mpisim.HighestDetail
	template, err := mpiTrainData(o, p2pBenchmarks, o.MPINodes[:1])
	if err != nil {
		return nil, err
	}
	planted := groundtruth.MPITruthPoint(v)
	// The rate-error column is scored in this process, so the synthetic
	// dataset is built here even when the calibrations run remotely.
	syn, err := groundtruth.SyntheticMPIData(v, planted, template.ds, o.MPIRounds)
	if err != nil {
		return nil, err
	}
	return selectionMatrix(ctx, o, "table5", "table5/mpi", v.Space(), planted, loss.AllMPIKinds,
		func(kind loss.MPIKind) (core.Simulator, error) {
			return o.simulator(simspec.ForMPI(v, kind, template.gt, o.MPIRounds, true),
				func() (core.Simulator, error) { return loss.MPIEvaluator(v, kind, syn, o.MPIRounds), nil })
		},
		func(p core.Point) (float64, error) {
			rerrs, err := loss.MPIRateErrors(v, v.DecodeConfig(p), syn, o.MPIRounds)
			if err != nil {
				return 0, err
			}
			return stats.Mean(rerrs) / 100, nil // fractional, like the paper
		})
}

// Figure4 calibrates the highest-detail MPI simulator against all
// ground-truth data at the smallest node count and traces the loss.
func Figure4(ctx context.Context, o Options) (*ConvergenceResult, error) {
	v := mpisim.HighestDetail
	train, err := mpiTrainData(o, p2pBenchmarks, o.MPINodes[:1])
	if err != nil {
		return nil, err
	}
	sim, err := mpiStudy.evaluator(o, v, train)
	if err != nil {
		return nil, err
	}
	return convergence(ctx, o, v.Space(), sim, "figure4/mpi/L1", fmt.Sprintf("%d nodes", o.MPINodes[0]))
}

// Figure5 implements Section 6.4: calibrate every version on the
// smallest-scale PingPing/PingPong/BiRandom data and report percent
// transfer-rate errors on the same data (the paper presents this as an
// overfitting study; generalization is Section 6.5).
func Figure5(ctx context.Context, o Options) (*LoDResult, error) {
	ds, err := mpiTrainData(o, p2pBenchmarks, o.MPINodes[:1])
	if err != nil {
		return nil, err
	}
	return mpiStudy.sweep(ctx, o, "figure5", mpisim.AllVersions(), ds, ds, "p2p")
}

// SpecBasedMPIConfig returns parameter values read off Summit's public
// specifications: 25 GB/s node injection bandwidth, ~1 µs switch
// latency, and an ideal protocol (factor 1 everywhere) — datasheets do
// not document MPI protocol inefficiencies.
func SpecBasedMPIConfig() mpisim.Config {
	return mpisim.Config{
		BackboneBW:  25e9 * 64, // aggregate fabric guess
		BackboneLat: 1e-6,
		LinkBW:      25e9,
		LinkLat:     1e-6,
		NICBW:       25e9,
		XBusBW:      64e9,
		PCIeBW:      32e9,
		Protocol: mpi.Protocol{
			Factors:      [3]float64{1, 1, 1},
			ChangePoints: mpisim.KnownChangePoints,
		},
	}
}

// Baseline2 is Section 6.4's no-calibration comparison: the spec-based
// lowest-detail MPI simulator against its calibrated counterpart, broken
// down by benchmark.
func Baseline2(ctx context.Context, o Options) (*BaselineResult, error) {
	ds, err := mpiTrainData(o, p2pBenchmarks, o.MPINodes[:1])
	if err != nil {
		return nil, err
	}
	v := mpisim.LowestDetail
	specErrs, err := loss.MPIRateErrors(v, SpecBasedMPIConfig(), ds.ds, o.MPIRounds)
	if err != nil {
		return nil, err
	}
	return mpiStudy.baseline(ctx, o, v, ds, ds, "p2p", specErrs,
		func(i int) string { return string(ds.ds.Measurements[i].Benchmark) })
}

// Section65Result reports the generalization study of Section 6.5.
type Section65Result struct {
	// StencilFromP2P is the average percent rate error simulating
	// Stencil with a calibration computed from the P2P benchmarks;
	// StencilNative uses a calibration computed from Stencil itself.
	StencilFromP2P, StencilNative float64
	// ScaleErrors[nodes] is the average percent rate error at each node
	// count using the calibration computed at the smallest count.
	ScaleErrors map[int]float64
	// TrainNodes is the node count the calibration was computed at.
	TrainNodes int
}

// Section65 tests cross-benchmark and cross-scale generalization of the
// highest-detail MPI simulator's calibration.
func Section65(ctx context.Context, o Options) (*Section65Result, error) {
	v := mpisim.HighestDetail
	trainNodes := o.MPINodes[:1]
	out := &Section65Result{ScaleErrors: make(map[int]float64), TrainNodes: trainNodes[0]}

	// Cross-benchmark: calibrate on P2P, evaluate on Stencil.
	p2p, err := mpiTrainData(o, p2pBenchmarks, trainNodes)
	if err != nil {
		return nil, err
	}
	stencil, err := mpiTrainData(o, []mpi.Benchmark{mpi.Stencil}, trainNodes)
	if err != nil {
		return nil, err
	}
	fromP2P, calibrated, err := mpiStudy.calibrateAndTest(ctx, o, v, p2p, stencil, "p2p")
	if err != nil {
		return nil, err
	}
	out.StencilFromP2P = fromP2P.AvgError
	native, _, err := mpiStudy.calibrateAndTest(ctx, o, v, stencil, stencil, "stencil")
	if err != nil {
		return nil, err
	}
	out.StencilNative = native.AvgError

	// Cross-scale: evaluate the smallest-count P2P calibration at each
	// larger count.
	for _, n := range o.MPINodes {
		ds, err := mpiTrainData(o, p2pBenchmarks, []int{n})
		if err != nil {
			return nil, err
		}
		errs, err := mpiStudy.score(o, v, calibrated, ds)
		if err != nil {
			return nil, err
		}
		out.ScaleErrors[n] = stats.Mean(errs)
	}
	return out, nil
}
