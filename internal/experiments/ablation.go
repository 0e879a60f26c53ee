package experiments

import (
	"context"
	"fmt"
	"strings"

	"simcal/internal/core"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/opt"
	"simcal/internal/simspec"
	"simcal/internal/stats"
	"simcal/internal/wfsim"
)

// selectedWFEvaluator is the loss the paper's selection settles on for
// case study #1 — L1 — for version v on the generated grid gt.
func selectedWFEvaluator(o Options, v wfsim.Version, gt groundtruth.WFOptions) (core.Simulator, error) {
	return o.simulator(simspec.ForWF(v, loss.WFL1, gt, false),
		func() (core.Simulator, error) {
			ds, err := groundtruth.GenerateWorkflowData(gt)
			if err != nil {
				return nil, err
			}
			return loss.WFEvaluator(v, loss.WFL1, ds), nil
		})
}

// AblationAlgResult compares every calibration algorithm at an equal
// budget on the same problem — the evidence behind the paper's Section 4
// statements that GRID and GRAD "performed poorly in preliminary
// experiments" and that "all versions of the BO algorithms perform
// almost identically".
type AblationAlgResult struct {
	// Losses maps algorithm name → best loss after the budget.
	Losses map[string]float64
	// Order lists algorithm names in run order.
	Order []string
	// BOSpread is max/min best loss across the four BO variants.
	BOSpread float64
}

// AblationAlgorithms calibrates the highest-detail workflow simulator
// with all seven algorithms on real ground truth and compares the final
// losses.
func AblationAlgorithms(ctx context.Context, o Options) (*AblationAlgResult, error) {
	v := wfsim.HighestDetail
	ev, err := selectedWFEvaluator(o, v, trainingWFOptions(o))
	if err != nil {
		return nil, err
	}
	algs := []core.Algorithm{
		opt.Grid{}, opt.Random{}, opt.GradientDescent{},
		opt.NewBOGP(), opt.NewBORF(), opt.NewBOET(), opt.NewBOGBRT(),
	}
	// Every algorithm calibrates the same (simulator, loss, dataset)
	// configuration, so all cells share one cache key: with a cache
	// attached, an evaluation any algorithm has already paid for is free
	// to every other.
	losses, err := RunJobsLogged(ctx, NewScheduler(o.Jobs), o.RunLog, "ablation-alg", len(algs), func(ctx context.Context, i int) (float64, error) {
		alg := algs[i] // one instance per cell: algorithms may keep state
		cal := o.calibrator(v.Space(), ev, alg, o.Seed, o.cacheKey("ablation/wf/L1"))
		r, err := cal.Run(ctx)
		if err != nil {
			return 0, fmt.Errorf("ablation %s: %w", alg.Name(), err)
		}
		return r.Best.Loss, nil
	})
	if err != nil {
		return nil, err
	}
	out := &AblationAlgResult{Losses: make(map[string]float64)}
	var bo []float64
	for i, alg := range algs {
		out.Order = append(out.Order, alg.Name())
		out.Losses[alg.Name()] = losses[i]
		if strings.HasPrefix(alg.Name(), "BO-") {
			bo = append(bo, losses[i])
		}
	}
	if lo := stats.Min(bo); lo > 0 {
		out.BOSpread = stats.Max(bo) / lo
	}
	return out, nil
}

// AblationBudgetResult traces how the achievable accuracy scales with
// the calibration budget — the justification for the paper's fixed
// time-budget methodology step.
type AblationBudgetResult struct {
	// Budgets lists the evaluation budgets tried, ascending.
	Budgets []int
	// Losses[i] is the best loss achieved within Budgets[i].
	Losses []float64
}

// AblationBudget calibrates the highest-detail workflow simulator at a
// range of budgets with the paper's selected algorithm/loss pair.
func AblationBudget(ctx context.Context, o Options) (*AblationBudgetResult, error) {
	v := wfsim.HighestDetail
	ev, err := selectedWFEvaluator(o, v, trainingWFOptions(o))
	if err != nil {
		return nil, err
	}
	budgets := []int{o.MaxEvals / 8, o.MaxEvals / 4, o.MaxEvals / 2, o.MaxEvals}
	out := &AblationBudgetResult{}
	for _, b := range budgets {
		if b < 8 {
			continue
		}
		oo := o
		oo.MaxEvals = b
		cal := oo.calibrator(v.Space(), ev, opt.NewBOGP(), o.Seed, o.cacheKey("ablation/wf/L1"))
		r, err := cal.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("ablation budget %d: %w", b, err)
		}
		out.Budgets = append(out.Budgets, b)
		out.Losses = append(out.Losses, r.Best.Loss)
	}
	if len(out.Budgets) == 0 {
		return nil, fmt.Errorf("ablation budget: MaxEvals %d too small", o.MaxEvals)
	}
	return out, nil
}

// AblationStorageValueResult quantifies what the all-nodes storage level
// of detail buys on data-heavy vs data-free workloads — the design-
// choice ablation DESIGN.md calls out for case study #1.
type AblationStorageValueResult struct {
	// DataHeavy and DataFree report the avg makespan error (%) of the
	// submit-only vs all-nodes storage versions on each workload class.
	DataHeavySubmitOnly, DataHeavyAllNodes float64
	DataFreeSubmitOnly, DataFreeAllNodes   float64
}

// AblationStorageValue calibrates the one-link/htcondor simulator with
// both storage options on data-heavy and data-free ground truth.
func AblationStorageValue(ctx context.Context, o Options) (*AblationStorageValueResult, error) {
	mk := func(footIdx []int) (*groundtruth.WFDataset, error) {
		gt := o.wfGrid(o.WFApps[:1], defaultWorkers(o)[:1])
		gt.FootIdx = footIdx
		return groundtruth.GenerateWorkflowData(gt)
	}
	foots := o.WFFootIdx
	if foots == nil {
		foots = []int{0, 1, 2, 3} // Table 1's real apps have 4 footprints
	}
	heavy, err := mk([]int{foots[len(foots)-1]})
	if err != nil {
		return nil, err
	}
	free, err := mk([]int{foots[0]})
	if err != nil {
		return nil, err
	}
	combos := []struct {
		storage wfsim.StorageOption
		ds      *groundtruth.WFDataset
		dsKey   string
	}{
		{wfsim.SubmitOnly, heavy, "storage-heavy"},
		{wfsim.AllNodes, heavy, "storage-heavy"},
		{wfsim.SubmitOnly, free, "storage-free"},
		{wfsim.AllNodes, free, "storage-free"},
	}
	errsOut, err := RunJobsLogged(ctx, NewScheduler(o.Jobs), o.RunLog, "ablation-storage", len(combos), func(ctx context.Context, i int) (float64, error) {
		c := combos[i]
		v := wfsim.Version{Network: wfsim.OneLink, Storage: c.storage, Compute: wfsim.HTCondor}
		va, _, err := wfStudy.calibrateAndTest(ctx, o, v, c.ds, c.ds, c.dsKey)
		if err != nil {
			return 0, err
		}
		return va.AvgError, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationStorageValueResult{
		DataHeavySubmitOnly: errsOut[0],
		DataHeavyAllNodes:   errsOut[1],
		DataFreeSubmitOnly:  errsOut[2],
		DataFreeAllNodes:    errsOut[3],
	}, nil
}
