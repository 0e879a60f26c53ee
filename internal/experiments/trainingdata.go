package experiments

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// budgetedTestLoss calibrates the highest-detail workflow simulator on
// train and returns its L1 loss on test — the cell of Figure 3 and of
// Section 5.5, which compare training datasets under a fixed WALL-CLOCK
// budget (the paper's setup): a larger training dataset makes each loss
// evaluation costlier, buying fewer optimizer iterations, which is
// exactly the effect both studies demonstrate (Figure 3's costly
// rectangular sets; "both chain and forkjoin is worse than forkjoin
// alone"). An evaluation-count budget would hide it. For the same reason
// there is no evaluation cache — memoized (free) re-evaluations would
// erase the cost being measured — one restart, and callers keep their
// cells sequential: concurrent wall-clock-budgeted calibrations would
// contend for CPU and distort each other's budgets.
func budgetedTestLoss(ctx context.Context, o Options, train, test *groundtruth.WFDataset) (float64, error) {
	v := wfsim.HighestDetail
	oo := o
	oo.Budget = o.TrainingBudget
	if oo.Budget <= 0 {
		oo.Budget = 3 * time.Second
	}
	oo.MaxEvals = 0
	oo.Restarts = 1
	oo.Cache = nil
	r, err := oo.calibrateBest(ctx, v.Space(), loss.WFEvaluator(v, loss.WFL1, train), algorithms()[1], o.Seed, "")
	if err != nil {
		return 0, err
	}
	return loss.WFEvaluator(v, loss.WFL1, test)(ctx, r.Best.Point)
}

// Figure3Point is one training-dataset option: its acquisition cost and
// the loss the resulting calibration achieves on the testing dataset.
type Figure3Point struct {
	App wfgen.App
	// Scheme is "single" (one worker count × one size) or "rect"
	// (all worker counts ≤ n × all sizes ≤ m).
	Scheme  string
	Workers int
	Tasks   int
	// Cost is Σ workers × makespan over the training executions (s).
	Cost float64
	// TestLoss is the L1 loss of the calibration on the test dataset.
	TestLoss float64
	// Reference marks the training dataset Section 5.4 used.
	Reference bool
}

// Figure3Result is the cost-vs-loss scatter of Figure 3.
type Figure3Result struct {
	Points []Figure3Point
}

// Figure3 implements Section 5.5's training-dataset study: for every
// single-sample and rectangular-sample training option, calibrate the
// highest-detail simulator and measure the loss on the testing dataset.
func Figure3(ctx context.Context, o Options) (*Figure3Result, error) {
	res := &Figure3Result{}
	workers := defaultWorkers(o)
	for _, app := range o.WFApps {
		if app == wfgen.Chain || app == wfgen.Forkjoin {
			continue // the scatter covers the real applications
		}
		full, _, test, err := splitDataset(o, []wfgen.App{app})
		if err != nil {
			return nil, err
		}
		sizes := appSizes(app, o.WFSizeIdx)
		refWorkers := workers[max(0, len(workers)-2)]
		refSize := sizes[max(0, len(sizes)-2)]
		evalOption := func(scheme string, nw, m int, keep func(*groundtruth.WFGroup) bool) error {
			train := full.Filter(keep)
			if len(train.Groups) == 0 {
				return nil
			}
			testLoss, err := budgetedTestLoss(ctx, o, train, test)
			if err != nil {
				return fmt.Errorf("figure3 %s %s n=%d m=%d: %w", app, scheme, nw, m, err)
			}
			res.Points = append(res.Points, Figure3Point{
				App: app, Scheme: scheme, Workers: nw, Tasks: m,
				Cost: train.Cost(), TestLoss: testLoss,
				Reference: scheme == "single" && nw == refWorkers && m == refSize,
			})
			return nil
		}
		for _, nw := range workers {
			for _, m := range sizes {
				if err := evalOption("single", nw, m, func(g *groundtruth.WFGroup) bool {
					return g.Workers == nw && g.Spec.Tasks == m
				}); err != nil {
					return nil, err
				}
				if nw == workers[0] && m == sizes[0] {
					continue // rect(n0, m0) == single(n0, m0)
				}
				if err := evalOption("rect", nw, m, func(g *groundtruth.WFGroup) bool {
					return g.Workers <= nw && g.Spec.Tasks <= m
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	return res, nil
}

// Section55Result reports the ground-truth-diversity studies of
// Section 5.5: calibrations computed from work/footprint-restricted
// subsets and from synthetic chain/forkjoin benchmarks, evaluated
// against real-application ground truth.
type Section55Result struct {
	// BaselineLoss is the test loss when training on the full work ×
	// footprint diversity (the Section 5.4 training dataset).
	BaselineLoss float64
	// RestrictedLosses maps "work=<w>s,data=<d>MB" → test loss when the
	// training dataset contains only that single work/footprint value.
	RestrictedLosses map[string]float64
	// WorseCount counts restricted options that lost to the baseline.
	WorseCount, TotalRestricted int
	// ChainLoss, ForkjoinLoss, BothLoss are test losses when training
	// only on the synthetic benchmarks.
	ChainLoss, ForkjoinLoss, BothLoss float64
}

// Section55 runs the training-data diversity study.
func Section55(ctx context.Context, o Options) (*Section55Result, error) {
	app := wfgen.Epigenomics
	if len(o.WFApps) > 0 && o.WFApps[0] != wfgen.Chain && o.WFApps[0] != wfgen.Forkjoin {
		app = o.WFApps[0]
	}
	workers := defaultWorkers(o)
	_, trainAll, test, err := splitDataset(o, []wfgen.App{app})
	if err != nil {
		return nil, err
	}
	testLossOf := func(train *groundtruth.WFDataset) (float64, error) {
		return budgetedTestLoss(ctx, o, train, test)
	}
	out := &Section55Result{RestrictedLosses: make(map[string]float64)}
	if out.BaselineLoss, err = testLossOf(trainAll); err != nil {
		return nil, err
	}
	// Work/footprint-restricted subsets of the training dataset.
	type wf struct{ w, d float64 }
	seen := map[wf]bool{}
	for _, g := range trainAll.Groups {
		seen[wf{g.Spec.WorkSeconds, g.Spec.FootprintBytes}] = true
	}
	byWorkThenData := func(a, b wf) int { return cmp.Or(cmp.Compare(a.w, b.w), cmp.Compare(a.d, b.d)) }
	for _, c := range slices.SortedFunc(maps.Keys(seen), byWorkThenData) {
		train := trainAll.Filter(func(g *groundtruth.WFGroup) bool {
			return g.Spec.WorkSeconds == c.w && g.Spec.FootprintBytes == c.d
		})
		tl, err := testLossOf(train)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("work=%gs,data=%gMB", c.w, c.d/wfgen.MB)
		out.RestrictedLosses[key] = tl
		out.TotalRestricted++
		if tl > out.BaselineLoss {
			out.WorseCount++
		}
	}
	// Synthetic-benchmark training: chain-only, forkjoin-only, both.
	synthTrain := func(apps []wfgen.App) (*groundtruth.WFDataset, error) {
		return groundtruth.GenerateWorkflowData(groundtruth.WFOptions{
			Apps:    apps,
			WorkIdx: o.WFWorkIdx, FootIdx: trimFootIdx(o.WFFootIdx, 3),
			// Only the two smallest worker counts are meaningful for the
			// synthetic benchmarks.
			Workers: workers[:min(2, len(workers))], Reps: o.Reps, Seed: o.Seed,
		})
	}
	chain, err := synthTrain([]wfgen.App{wfgen.Chain})
	if err != nil {
		return nil, err
	}
	if out.ChainLoss, err = testLossOf(chain); err != nil {
		return nil, err
	}
	forkjoin, err := synthTrain([]wfgen.App{wfgen.Forkjoin})
	if err != nil {
		return nil, err
	}
	if out.ForkjoinLoss, err = testLossOf(forkjoin); err != nil {
		return nil, err
	}
	both := &groundtruth.WFDataset{Groups: append(append([]*groundtruth.WFGroup(nil), chain.Groups...), forkjoin.Groups...)}
	if out.BothLoss, err = testLossOf(both); err != nil {
		return nil, err
	}
	return out, nil
}

// appSizes lists the workflow sizes of an app restricted to the option
// subset, ascending.
func appSizes(app wfgen.App, idx []int) []int {
	sizes := wfgen.Table1[app].Sizes
	var out []int
	if idx == nil {
		out = append(out, sizes...)
	} else {
		for _, i := range idx {
			out = append(out, sizes[i])
		}
	}
	slices.Sort(out)
	return out
}

// trimFootIdx clamps footprint indices to the synthetic benchmarks'
// shorter footprint list.
func trimFootIdx(idx []int, n int) []int {
	if idx == nil {
		return nil
	}
	var out []int
	for _, i := range idx {
		if i < n {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		out = []int{n - 1}
	}
	return out
}
