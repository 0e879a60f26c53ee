package opt

import (
	"simcal/internal/core"
	"simcal/internal/opt/surrogate"
	"simcal/internal/stats"
)

// scratch is the working memory of one running BO Optimize call: the
// acquisition's candidate pool and the training-set buffers, rewritten
// in place every iteration so a warmed loop allocates only what leaves
// it. It belongs to the call, never to the BayesOpt/AsyncBayesOpt value:
// the experiment runner hands one such value to concurrent cells.
//
// Every row in here is overwritten by the next draw, so a row that
// leaves — a proposal on its way to the problem, an in-flight unit kept
// as a fantasy row — is copied out first (winner). The GP finds the
// unchanged prefix of its training set by row pointer, which holds only
// while history and in-flight rows are never rewritten.
type scratch struct {
	flat        []float64   // the pool's coordinates, candidate-major
	cands       [][]float64 // rows of flat
	means, stds []float64   // PredictBatch outputs, one per candidate
	perm        []int       // PermInto buffer, one entry per dimension
	ranked      eiOrder     // batch BO's acquisition ranking
	idx, kept   []int       // trainingSet: loss order, then chosen rows
	sub         []core.Sample
	trainX      [][]float64
	trainY      []float64
}

// poolSigmas are the pool's local-move step scales, incumbentSigmas the
// finer ones of the dedicated refinement proposal.
var (
	poolSigmas      = [3]float64{0.02, 0.08, 0.25}
	incumbentSigmas = [3]float64{0.01, 0.04, 0.15}
)

// scorePool draws n candidates — half uniform, half local perturbations
// of the incumbent — and scores them in one batched call (regressors
// parallelize it internally, bitwise identical to per-candidate Predict
// calls); mem.means and mem.stds hold the result. Local moves vary both
// the step scale and the number of perturbed coordinates: in
// ~10-dimensional calibration spaces full-dimensional Gaussian moves
// rarely improve, while axis-sparse moves refine one or two parameters
// at a time.
func (mem *scratch) scorePool(prob *core.Problem, reg surrogate.Regressor, incumbent []float64, n int) [][]float64 {
	d := prob.Space.Dim()
	if len(mem.cands) != n || len(mem.flat) != n*d {
		mem.flat = make([]float64, n*d)
		mem.cands = make([][]float64, n)
		for i := range mem.cands {
			mem.cands[i] = mem.flat[i*d : (i+1)*d : (i+1)*d]
		}
		mem.means, mem.stds = make([]float64, n), make([]float64, n)
	}
	for _, c := range mem.cands[:n/2] {
		prob.Space.SampleInto(prob.RNG, c)
	}
	for _, c := range mem.cands[n/2:] {
		mem.perturb(prob.RNG, c, incumbent, poolSigmas, d)
	}
	reg.PredictBatch(mem.cands, mem.means, mem.stds)
	return mem.cands
}

// perturb writes into dst a sparse Gaussian move away from src: a step
// scale drawn from sigmas, applied to the first 1..maxK coordinates of
// a random permutation, clamped to the unit cube.
func (mem *scratch) perturb(rng *stats.RNG, dst, src []float64, sigmas [3]float64, maxK int) {
	d := copy(dst, src)
	sigma := sigmas[rng.Intn(len(sigmas))]
	k := 1 + rng.Intn(maxK)
	if k > d {
		k = d
	}
	if len(mem.perm) != d {
		mem.perm = make([]int, d)
	}
	rng.PermInto(mem.perm)
	for _, j := range mem.perm[:k] {
		dst[j] = clamp01(dst[j] + rng.Normal(0, sigma))
	}
}

// perturbIncumbent returns a fresh one- or two-coordinate perturbation
// of the incumbent, bypassing the surrogate — an embedded (1+1)-style
// local search that keeps polishing the narrow valleys calibration
// problems exhibit (a core speed only 20% off already doubles the loss).
func (mem *scratch) perturbIncumbent(prob *core.Problem, bestUnit []float64) []float64 {
	c := make([]float64, len(bestUnit))
	mem.perturb(prob.RNG, c, bestUnit, incumbentSigmas, 2)
	return c
}

// winner copies a pool row out of the scratch so it can outlive the
// next draw.
func winner(row []float64) []float64 { return append([]float64(nil), row...) }

// scored is one pool candidate with its acquisition score.
type scored struct {
	u        []float64
	ei, mean float64
}

// eiOrder sorts by descending acquisition score through sort.Sort,
// which runs the same pdqsort as sort.Slice — the order among equal
// scores is part of the reproducible stream — without sort.Slice's
// reflection allocations.
type eiOrder []scored

func (o eiOrder) Len() int           { return len(o) }
func (o eiOrder) Less(i, j int) bool { return o[i].ei > o[j].ei }
func (o eiOrder) Swap(i, j int)      { o[i], o[j] = o[j], o[i] }
