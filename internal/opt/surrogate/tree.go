// Package surrogate implements the surrogate regressors used by the
// Bayesian-optimization algorithm: a Gaussian process (BO-GP), random
// forest (BO-RF), extremely randomized trees (BO-ET), and gradient
// boosted quantile regression trees (BO-GBRT) — the same four regressors
// the paper uses via scikit-optimize, rebuilt on the standard library.
//
// All regressors implement the Regressor interface: fit on (X, y) with X
// in the unit cube, then predict a mean and an uncertainty estimate that
// the expected-improvement acquisition consumes.
package surrogate

import (
	"errors"
	"math"
	"sort"

	"simcal/internal/stats"
)

// Regressor is a surrogate model over the unit cube.
//
// A pool of candidates is scored in two passes. The mean pass,
// PredictMean, writes every row's mean and a bound on its standard
// deviation; the variance pass, PredictStd, then replaces the bounds
// the caller asks for with the standard deviations themselves, and may
// be called again on the same pool for more. A GP's standard deviation
// is a triangular solve per candidate, most of its scoring cost, so a
// caller that can tell from the means and bounds that a candidate
// cannot win (the expected-improvement acquisition) never pays for it.
// Every mean and standard deviation either pass writes is bitwise what
// Predict returns for that row, for any worker count and any
// selection: the acquisition relies on this to keep proposals
// reproducible (and checkpoint replay byte-stable).
type Regressor interface {
	// Name identifies the regressor (for reports).
	Name() string
	// Fit trains on rows X (all in [0,1]^d) with targets y.
	Fit(X [][]float64, y []float64) error
	// Predict returns the predictive mean and standard deviation at x.
	// Predict must only be called after a successful Fit.
	Predict(x []float64) (mean, std float64)
	// PredictMean is the mean pass over the pool X: it writes mean[i]
	// for every row X[i], and into std[i] a bound the standard
	// deviation of X[i] does not exceed (+Inf for none; the tree
	// ensembles write the standard deviation itself). It keeps what the
	// variance pass needs until the next PredictMean or Fit. It panics
	// if len(mean) or len(std) differs from len(X), and must only be
	// called after a successful Fit.
	PredictMean(X [][]float64, mean, std []float64)
	// PredictStd is the variance pass over the pool of the last
	// PredictMean: it writes the standard deviation std[i] for every i
	// with need[i], or for every i when need is nil. Other entries keep
	// their bound, or their standard deviation once written. std is the
	// slice the mean pass was given, and need, when not nil, is as long.
	PredictStd(need []bool, std []float64)
}

// ErrNoData is returned by Fit when given no training rows.
var ErrNoData = errors.New("surrogate: no training data")

// treeConfig controls regression-tree induction.
type treeConfig struct {
	maxDepth   int
	minLeaf    int
	featureSub int  // number of features considered per split; 0 = all
	randThresh bool // extra-trees style: one random threshold per feature
}

// treeNode is a binary regression-tree node. Leaves hold the indices of
// the training rows they contain so ensembles can recompute leaf values
// under different aggregation rules (mean for RF/ET, quantile for GBRT).
type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	value       float64
	rows        []int
}

func (n *treeNode) isLeaf() bool { return n.left == nil }

// buildTree grows a regression tree on rows (indices into X/y).
func buildTree(X [][]float64, y []float64, rows []int, depth int, cfg treeConfig, rng *stats.RNG) *treeNode {
	node := &treeNode{rows: rows, value: meanAt(y, rows)}
	if depth >= cfg.maxDepth || len(rows) < 2*cfg.minLeaf || constantAt(y, rows) {
		return node
	}
	d := len(X[0])
	features := rng.Perm(d)
	if cfg.featureSub > 0 && cfg.featureSub < d {
		features = features[:cfg.featureSub]
	}
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	parentSSE := sseAt(y, rows)
	for _, f := range features {
		var thresholds []float64
		if cfg.randThresh {
			lo, hi := minMaxFeature(X, rows, f)
			if hi <= lo {
				continue
			}
			thresholds = []float64{rng.Uniform(lo, hi)}
		} else {
			thresholds = candidateThresholds(X, rows, f)
		}
		for _, th := range thresholds {
			sseL, sseR, nL, nR := splitSSE(X, y, rows, f, th)
			if nL < cfg.minLeaf || nR < cfg.minLeaf {
				continue
			}
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain, bestFeat, bestThresh = gain, f, th
			}
		}
	}
	if bestFeat < 0 {
		return node
	}
	var left, right []int
	for _, r := range rows {
		if X[r][bestFeat] <= bestThresh {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	node.feature = bestFeat
	node.threshold = bestThresh
	node.left = buildTree(X, y, left, depth+1, cfg, rng)
	node.right = buildTree(X, y, right, depth+1, cfg, rng)
	node.rows = nil // interior nodes do not need row sets
	return node
}

// predict walks the tree to the leaf containing x.
func (n *treeNode) predict(x []float64) float64 {
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// leaf returns the leaf node containing x.
func (n *treeNode) leaf(x []float64) *treeNode {
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// forEachLeaf visits all leaves.
func (n *treeNode) forEachLeaf(fn func(*treeNode)) {
	if n.isLeaf() {
		fn(n)
		return
	}
	n.left.forEachLeaf(fn)
	n.right.forEachLeaf(fn)
}

func meanAt(y []float64, rows []int) float64 {
	if len(rows) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range rows {
		s += y[r]
	}
	return s / float64(len(rows))
}

func constantAt(y []float64, rows []int) bool {
	for _, r := range rows[1:] {
		if y[r] != y[rows[0]] {
			return false
		}
	}
	return true
}

func sseAt(y []float64, rows []int) float64 {
	m := meanAt(y, rows)
	s := 0.0
	for _, r := range rows {
		d := y[r] - m
		s += float64(d * d)
	}
	return s
}

func splitSSE(X [][]float64, y []float64, rows []int, f int, th float64) (sseL, sseR float64, nL, nR int) {
	var sumL, sumR, sqL, sqR float64
	for _, r := range rows {
		v := y[r]
		if X[r][f] <= th {
			nL++
			sumL += v
			sqL += float64(v * v)
		} else {
			nR++
			sumR += v
			sqR += float64(v * v)
		}
	}
	if nL > 0 {
		sseL = sqL - sumL*sumL/float64(nL)
	}
	if nR > 0 {
		sseR = sqR - sumR*sumR/float64(nR)
	}
	return sseL, sseR, nL, nR
}

func minMaxFeature(X [][]float64, rows []int, f int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		v := X[r][f]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// candidateThresholds returns midpoints between consecutive distinct
// sorted feature values, capped to a reasonable number for large rows.
func candidateThresholds(X [][]float64, rows []int, f int) []float64 {
	vals := make([]float64, 0, len(rows))
	for _, r := range rows {
		vals = append(vals, X[r][f])
	}
	sort.Float64s(vals)
	var ths []float64
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			ths = append(ths, (vals[i]+vals[i-1])/2)
		}
	}
	const maxThresholds = 32
	if len(ths) > maxThresholds {
		step := float64(len(ths)) / maxThresholds
		sub := make([]float64, 0, maxThresholds)
		for i := 0; i < maxThresholds; i++ {
			sub = append(sub, ths[int(float64(i)*step)])
		}
		ths = sub
	}
	return ths
}

// quantileAt returns the q-quantile of y restricted to rows.
func quantileAt(y []float64, rows []int, q float64) float64 {
	vals := make([]float64, 0, len(rows))
	for _, r := range rows {
		vals = append(vals, y[r])
	}
	return stats.Quantile(vals, q)
}

// validateXY checks training-data shape.
func validateXY(X [][]float64, y []float64) error {
	if len(X) == 0 || len(y) == 0 {
		return ErrNoData
	}
	if len(X) != len(y) {
		return errors.New("surrogate: X and y length mismatch")
	}
	d := len(X[0])
	if d == 0 {
		return errors.New("surrogate: zero-dimensional inputs")
	}
	for _, row := range X {
		if len(row) != d {
			return errors.New("surrogate: ragged X")
		}
	}
	return nil
}
