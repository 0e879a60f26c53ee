package experiments

import (
	"context"
	"fmt"
	"slices"

	"simcal/internal/core"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// wfStudy is case study #1, workflow executions: versions are scored by
// percent makespan error. Its training sets are in-process splits and
// filters of a generated grid, which no simspec.Spec describes, so its
// calibrations always evaluate locally.
var wfStudy = study[wfsim.Version, *groundtruth.WFDataset]{
	cacheKey: "wf/L1",
	evaluator: func(_ Options, v wfsim.Version, train *groundtruth.WFDataset) (core.Simulator, error) {
		return loss.WFEvaluator(v, loss.WFL1, train), nil
	},
	score: func(_ Options, v wfsim.Version, p core.Point, test *groundtruth.WFDataset) ([]float64, error) {
		return loss.WFMakespanErrors(v, v.DecodeConfig(p), test)
	},
	executions: func(test *groundtruth.WFDataset) int { return len(test.Groups) },
}

// Table3 runs the synthetic-benchmarking selection of Section 5.3.2:
// plant the true calibration in the highest-detail workflow simulator,
// generate synthetic ground truth, calibrate with every algorithm × loss
// pair, and report the calibration errors — the paper's Table 3.
func Table3(ctx context.Context, o Options) (*SelectionResult, error) {
	v := wfsim.HighestDetail
	gt := trainingWFOptions(o)
	planted := groundtruth.WorkflowTruthPoint(v)
	// With a Remote hook the workers build the synthetic dataset from
	// the spec; only local evaluation needs it in this process.
	var syn *groundtruth.WFDataset
	if o.Remote == nil {
		template, err := groundtruth.GenerateWorkflowData(gt)
		if err != nil {
			return nil, err
		}
		syn, err = groundtruth.SyntheticWorkflowData(v, planted, template)
		if err != nil {
			return nil, err
		}
	}
	return selectionMatrix(ctx, o, "table3", "table3/wf", v.Space(), planted, loss.AllWFKinds,
		func(kind loss.WFKind) (core.Simulator, error) {
			return o.simulator(simspec.ForWF(v, kind, gt, true),
				func() (core.Simulator, error) { return loss.WFEvaluator(v, kind, syn), nil })
		}, nil)
}

// Figure1 calibrates the highest-detail workflow simulator against all
// ground-truth data for one application and traces the best-so-far loss
// over time.
func Figure1(ctx context.Context, o Options) (*ConvergenceResult, error) {
	app := wfgen.Epigenomics
	if len(o.WFApps) > 0 {
		app = o.WFApps[0]
	}
	v := wfsim.HighestDetail
	sim, err := selectedWFEvaluator(o, v, o.wfGrid([]wfgen.App{app}, o.WFWorkers))
	if err != nil {
		return nil, err
	}
	return convergence(ctx, o, v.Space(), sim, "figure1/wf/L1", fmt.Sprintf("app=%s", app))
}

// Figure2 implements Section 5.4: calibrate every simulator version on
// the training dataset (second-largest worker count and workflow size)
// and evaluate percent makespan error on the testing dataset (largest
// executions).
func Figure2(ctx context.Context, o Options) (*LoDResult, error) {
	_, train, test, err := splitDataset(o, o.WFApps)
	if err != nil {
		return nil, err
	}
	return wfStudy.sweep(ctx, o, "figure2", wfsim.AllVersions(), train, test, "train")
}

// SpecBasedConfig returns the parameter values a user would read off the
// Chameleon Cloud hardware documentation: nominal CPU clock×IPC, 10 Gb/s
// network, datasheet disk bandwidth, and — critically — no middleware
// overheads, since no datasheet documents HTCondor's scheduling costs.
func SpecBasedConfig() wfsim.Config {
	return wfsim.Config{
		CoreSpeed: 2.4e9 * 4, // 2.4 GHz Icelake × nominal 4 ops/cycle
		DiskBW:    500e6,     // datasheet sequential bandwidth
		DiskConc:  64,
		LinkBW:    1.25e9, // 10 Gb/s NIC
		LinkLat:   5e-5,
	}
}

// Baseline1 is Section 5.4's no-calibration comparison: the spec-based
// lowest-detail simulator against the calibrated one on the testing
// dataset, broken down by application.
func Baseline1(ctx context.Context, o Options) (*BaselineResult, error) {
	_, train, test, err := splitDataset(o, o.WFApps)
	if err != nil {
		return nil, err
	}
	v := wfsim.LowestDetail
	specErrs, err := loss.WFMakespanErrors(v, SpecBasedConfig(), test)
	if err != nil {
		return nil, err
	}
	return wfStudy.baseline(ctx, o, v, train, test, "train", specErrs,
		func(i int) string { return string(test.Groups[i].Spec.App) })
}

// trainingWFOptions resolves the generation options of the default
// training dataset: per app, the second-largest worker count and
// second-largest size (Section 5.4). The resolved options double as the
// dataset description shipped to remote workers inside simulator specs.
func trainingWFOptions(o Options) groundtruth.WFOptions {
	workers := defaultWorkers(o)
	gt := o.wfGrid(o.WFApps, []int{workers[max(0, len(workers)-2)]})
	gt.SizeIdx = []int{secondLargestIdx(o.WFSizeIdx, len(wfgen.Table1[wfgen.Epigenomics].Sizes))}
	return gt
}

// splitDataset generates the complete ground-truth grid of apps and
// splits it (see splitTrainTest).
func splitDataset(o Options, apps []wfgen.App) (full, train, test *groundtruth.WFDataset, err error) {
	full, err = groundtruth.GenerateWorkflowData(o.wfGrid(apps, defaultWorkers(o)))
	if err != nil {
		return nil, nil, nil, err
	}
	train, test = splitTrainTest(full, o)
	return full, train, test, nil
}

// wfGrid describes the ground-truth grid of apps × the options' size,
// work and footprint subsets × workers.
func (o Options) wfGrid(apps []wfgen.App, workers []int) groundtruth.WFOptions {
	return groundtruth.WFOptions{
		Apps:    apps,
		SizeIdx: o.WFSizeIdx, WorkIdx: o.WFWorkIdx, FootIdx: o.WFFootIdx,
		Workers: workers, Reps: o.Reps, Seed: o.Seed,
	}
}

// splitTrainTest implements the paper's split: testing = the "large"
// executions (largest worker count with size above minimum, or largest
// size with worker count above minimum); training = second-largest
// worker count and second-largest size.
func splitTrainTest(full *groundtruth.WFDataset, o Options) (train, test *groundtruth.WFDataset) {
	workers := defaultWorkers(o)
	maxWorkers := workers[len(workers)-1]
	trainWorkers := workers[max(0, len(workers)-2)]
	test = full.Filter(func(g *groundtruth.WFGroup) bool {
		sizes := appSizes(g.Spec.App, o.WFSizeIdx)
		maxSize, minSize := sizes[len(sizes)-1], sizes[0]
		if g.Workers == maxWorkers && g.Spec.Tasks > minSize {
			return true
		}
		return g.Spec.Tasks == maxSize && g.Workers > workers[0]
	})
	train = full.Filter(func(g *groundtruth.WFGroup) bool {
		sizes := appSizes(g.Spec.App, o.WFSizeIdx)
		trainSize := sizes[max(0, len(sizes)-2)]
		return g.Workers == trainWorkers && g.Spec.Tasks == trainSize
	})
	return train, test
}

func defaultWorkers(o Options) []int {
	if len(o.WFWorkers) > 0 {
		return slices.Sorted(slices.Values(o.WFWorkers))
	}
	return []int{1, 2, 4, 6}
}

// secondLargestIdx returns the index of the second-largest element given
// either an explicit index subset or the full range length.
func secondLargestIdx(subset []int, n int) int {
	if subset == nil {
		return max(0, n-2)
	}
	sorted := slices.Sorted(slices.Values(subset))
	return sorted[max(0, len(sorted)-2)]
}
