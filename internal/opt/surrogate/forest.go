package surrogate

import (
	"math"

	"simcal/internal/stats"
)

// Forest is a bagged ensemble of regression trees. With Extra=false it is
// a random forest (bootstrap rows, best-threshold splits on a feature
// subset); with Extra=true it is extremely randomized trees (all rows,
// one random threshold per candidate feature). The prediction mean is
// the average of tree predictions and the uncertainty is their standard
// deviation — the convention scikit-optimize uses to make tree ensembles
// usable inside Bayesian optimization.
type Forest struct {
	// Trees is the ensemble size (default 32).
	Trees int
	// MaxDepth bounds tree depth (default 12).
	MaxDepth int
	// MinLeaf is the minimum rows per leaf (default 2).
	MinLeaf int
	// Extra selects extremely-randomized splits.
	Extra bool
	// Seed makes fitting deterministic.
	Seed int64
	// PredictWorkers bounds the goroutines used by each scoring pass
	// (0 = GOMAXPROCS, 1 = serial). The output is identical either way.
	PredictWorkers int

	roots []*treeNode
	xdata [][]float64
}

// NewRandomForest returns a random-forest regressor (BO-RF).
func NewRandomForest(seed int64) *Forest { return &Forest{Seed: seed} }

// NewExtraTrees returns an extremely-randomized-trees regressor (BO-ET).
func NewExtraTrees(seed int64) *Forest { return &Forest{Extra: true, Seed: seed} }

// Name implements Regressor.
func (f *Forest) Name() string {
	if f.Extra {
		return "ET"
	}
	return "RF"
}

func (f *Forest) defaults() (trees, depth, minLeaf int) {
	trees, depth, minLeaf = f.Trees, f.MaxDepth, f.MinLeaf
	if trees <= 0 {
		trees = 32
	}
	if depth <= 0 {
		depth = 12
	}
	if minLeaf <= 0 {
		minLeaf = 2
	}
	return trees, depth, minLeaf
}

// Fit implements Regressor.
func (f *Forest) Fit(X [][]float64, y []float64) error {
	if err := validateXY(X, y); err != nil {
		return err
	}
	trees, depth, minLeaf := f.defaults()
	d := len(X[0])
	featureSub := 0
	if !f.Extra {
		featureSub = int(math.Ceil(float64(d) / 3))
		if featureSub < 1 {
			featureSub = 1
		}
	}
	rng := stats.NewRNG(f.Seed)
	f.roots = make([]*treeNode, trees)
	f.xdata = X
	n := len(X)
	for t := 0; t < trees; t++ {
		treeRNG := rng.Fork()
		var rows []int
		if f.Extra {
			rows = make([]int, n)
			for i := range rows {
				rows[i] = i
			}
		} else {
			rows = make([]int, n)
			for i := range rows {
				rows[i] = treeRNG.Intn(n)
			}
		}
		cfg := treeConfig{maxDepth: depth, minLeaf: minLeaf, featureSub: featureSub, randThresh: f.Extra}
		f.roots[t] = buildTree(X, y, rows, 0, cfg, treeRNG)
	}
	return nil
}

// Reseed implements Reseeder: the next Fit uses the given seed.
func (f *Forest) Reseed(seed int64) { f.Seed = seed }

// Predict implements Regressor.
func (f *Forest) Predict(x []float64) (mean, std float64) {
	if len(f.roots) == 0 {
		panic("surrogate: Predict before Fit")
	}
	preds := make([]float64, len(f.roots))
	for i, r := range f.roots {
		preds[i] = r.predict(x)
	}
	return stats.Mean(preds), stats.StdDev(preds)
}

// PredictMean implements Regressor. The mean pass writes both outputs,
// so the standard deviation is its own bound: each candidate's per-tree
// prediction vector is accumulated in a per-worker buffer and reduced
// with the same stats.Mean/stats.StdDev calls Predict uses, and every
// write is index-addressed, so the output is bitwise identical to the
// serial per-candidate loop.
func (f *Forest) PredictMean(X [][]float64, mean, std []float64) {
	if len(f.roots) == 0 {
		panic("surrogate: PredictMean before Fit")
	}
	checkBatchArgs(X, mean, std)
	n := len(X)
	preds := make([][]float64, batchWorkers(chunks(n), f.PredictWorkers))
	batchLoop(chunks(n), f.PredictWorkers, new(workerGroup), runFunc(func(w, i int) {
		if preds[w] == nil {
			preds[w] = make([]float64, len(f.roots))
		}
		p := preds[w]
		lo, hi := chunk(i, n)
		for c := lo; c < hi; c++ {
			for t, r := range f.roots {
				p[t] = r.predict(X[c])
			}
			mean[c] = stats.Mean(p)
			std[c] = stats.StdDev(p)
		}
	}))
}

// PredictStd implements Regressor: the mean pass wrote every std.
func (f *Forest) PredictStd([]bool, []float64) {}
