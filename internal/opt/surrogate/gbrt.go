package surrogate

import (
	"simcal/internal/stats"
)

// GBRT is a gradient-boosted quantile-regression-trees surrogate
// (BO-GBRT). It boosts three ensembles targeting the 16th, 50th, and
// 84th percentiles; the median is the predictive mean and
// (q84 − q16)/2 is the uncertainty — the same construction
// scikit-optimize uses to give boosted trees an error bar.
type GBRT struct {
	// Stages is the number of boosting stages per quantile (default 50).
	Stages int
	// LearningRate shrinks each stage's contribution (default 0.1).
	LearningRate float64
	// MaxDepth bounds the depth of each stage's tree (default 3).
	MaxDepth int
	// MinLeaf is the minimum rows per leaf (default 3).
	MinLeaf int
	// Seed makes fitting deterministic.
	Seed int64
	// PredictWorkers bounds the goroutines used by each scoring pass
	// (0 = GOMAXPROCS, 1 = serial). The output is identical either way.
	PredictWorkers int

	models [3]*boostedModel // q16, q50, q84
}

type boostedModel struct {
	base   float64
	stages []*treeNode
	lr     float64
}

// NewGBRT returns a gradient-boosted quantile regressor.
func NewGBRT(seed int64) *GBRT { return &GBRT{Seed: seed} }

// Name implements Regressor.
func (g *GBRT) Name() string { return "GBRT" }

// Fit implements Regressor.
func (g *GBRT) Fit(X [][]float64, y []float64) error {
	if err := validateXY(X, y); err != nil {
		return err
	}
	stages, lr, depth, minLeaf := g.Stages, g.LearningRate, g.MaxDepth, g.MinLeaf
	if stages <= 0 {
		stages = 50
	}
	if lr <= 0 {
		lr = 0.1
	}
	if depth <= 0 {
		depth = 3
	}
	if minLeaf <= 0 {
		minLeaf = 3
	}
	quantiles := [3]float64{0.16, 0.5, 0.84}
	rng := stats.NewRNG(g.Seed)
	for qi, q := range quantiles {
		m := &boostedModel{base: stats.Quantile(y, q), lr: lr}
		pred := make([]float64, len(y))
		for i := range pred {
			pred[i] = m.base
		}
		resid := make([]float64, len(y))
		rows := make([]int, len(y))
		for i := range rows {
			rows[i] = i
		}
		for s := 0; s < stages; s++ {
			for i := range resid {
				resid[i] = y[i] - pred[i]
			}
			cfg := treeConfig{maxDepth: depth, minLeaf: minLeaf}
			root := buildTree(X, resid, rows, 0, cfg, rng.Fork())
			// Quantile leaf update: each leaf predicts the q-quantile of
			// the residuals it contains, which makes the boosted ensemble
			// converge to the conditional quantile.
			root.forEachLeaf(func(leaf *treeNode) {
				leaf.value = quantileAt(resid, leaf.rows, q)
			})
			m.stages = append(m.stages, root)
			for i := range pred {
				pred[i] += float64(lr * root.predict(X[i]))
			}
		}
		g.models[qi] = m
	}
	return nil
}

func (m *boostedModel) predict(x []float64) float64 {
	v := m.base
	for _, s := range m.stages {
		v += float64(m.lr * s.predict(x))
	}
	return v
}

// Reseed implements Reseeder: the next Fit uses the given seed.
func (g *GBRT) Reseed(seed int64) { g.Seed = seed }

// Predict implements Regressor.
func (g *GBRT) Predict(x []float64) (mean, std float64) {
	if g.models[1] == nil {
		panic("surrogate: Predict before Fit")
	}
	q16 := g.models[0].predict(x)
	q50 := g.models[1].predict(x)
	q84 := g.models[2].predict(x)
	std = (q84 - q16) / 2
	if std < 0 {
		std = 0
	}
	return q50, std
}

// PredictMean implements Regressor. The mean pass writes both outputs,
// so the standard deviation is its own bound: each candidate is scored
// with the same per-quantile ensemble walk Predict performs, with
// index-addressed writes, so the output is bitwise identical to the
// serial loop.
func (g *GBRT) PredictMean(X [][]float64, mean, std []float64) {
	if g.models[1] == nil {
		panic("surrogate: PredictMean before Fit")
	}
	checkBatchArgs(X, mean, std)
	n := len(X)
	batchLoop(chunks(n), g.PredictWorkers, new(workerGroup), runFunc(func(_, i int) {
		lo, hi := chunk(i, n)
		for c := lo; c < hi; c++ {
			mean[c], std[c] = g.Predict(X[c])
		}
	}))
}

// PredictStd implements Regressor: the mean pass wrote every std.
func (g *GBRT) PredictStd([]bool, []float64) {}
