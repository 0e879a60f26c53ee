package opt

import (
	"math"
	"sort"

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
	means, stds []float64   // the surrogate's outputs, one per candidate
	upper       []float64   // eiRanked's bound on each candidate's EI
	need        []bool      // the variance pass's selection
	seeds       []int       // eiRanked's first candidates to solve
	lows        []float64   // eiRanked's k largest bounds or seed EIs
	perm        []int       // PermInto buffer, one entry per dimension
	ranked      eiOrder     // the acquisition's survivors
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
// of the incumbent — and runs the surrogate's mean pass over them:
// mem.means holds every candidate's predictive mean and mem.stds a
// bound on its standard deviation, which the variance pass (eiRanked)
// replaces where it is needed. Regressors parallelize both passes
// internally, bitwise identical to per-candidate Predict calls. Local
// moves vary both the step scale and the number of perturbed
// coordinates: in
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
	}
	for _, c := range mem.cands[:n/2] {
		prob.Space.SampleInto(prob.RNG, c)
	}
	for _, c := range mem.cands[n/2:] {
		mem.perturb(prob.RNG, c, incumbent, poolSigmas, d)
	}
	mem.meanPass(reg, mem.cands)
	return mem.cands
}

// meanPass runs reg's mean pass over cands into mem.means and mem.stds.
func (mem *scratch) meanPass(reg surrogate.Regressor, cands [][]float64) {
	if n := len(cands); len(mem.means) != n {
		mem.means, mem.stds, mem.upper = make([]float64, n), make([]float64, n), make([]float64, n)
		mem.need = make([]bool, n)
	}
	reg.PredictMean(cands, mem.means, mem.stds)
}

// lowestMean returns the index of the pool's first lowest predicted
// mean: the exploitation pick, which needs the mean pass only.
func (mem *scratch) lowestMean() int {
	best := 0
	for i, m := range mem.means {
		if m < mem.means[best] {
			best = i
		}
	}
	return best
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
	u  []float64
	ei float64
}

// eiOrder sorts by descending acquisition score through sort.Sort,
// which runs the same pdqsort as sort.Slice — the order among equal
// scores is part of the reproducible stream — without sort.Slice's
// reflection allocations.
type eiOrder []scored

func (o eiOrder) Len() int           { return len(o) }
func (o eiOrder) Less(i, j int) bool { return o[i].ei > o[j].ei }
func (o eiOrder) Swap(i, j int)      { o[i], o[j] = o[j], o[i] }

// eiSlack and eiSlackFloor bound expectedImprovement's absolute
// rounding error: eiSlack·(|imp| + σ) + eiSlackFloor. By analysis the
// error is below about 2⁻⁵⁰·(|imp| + σ) for normal operands, and a
// subnormal intermediate adds at most a few 2⁻¹⁰⁷⁴; the constants leave
// room to spare for Erf's and Exp's own error (DESIGN §6).
const (
	eiSlack      = 0x1p-40
	eiSlackFloor = 0x1p-1000
)

// eiSlackAt is the rounding margin of a candidate whose improvement is
// imp, at any σ up to sigma.
func eiSlackAt(imp, sigma float64) float64 {
	return float64(eiSlack*(math.Abs(imp)+sigma)) + eiSlackFloor
}

// eiRanked scores the pool by expected improvement for a caller that
// keeps its k best, and returns (in mem.ranked) the candidates that can
// be among them: in pool order, or by descending EI when sorted. What
// the caller keeps — the first maximum in pool order, or the first k
// after sorting — is what it would keep from scoring every candidate,
// bit for bit.
//
// After the mean pass mem.stds holds a bound on each σ. EI is
// nondecreasing in σ, so EI at the bound, plus the rounding margin, is
// an upper bound on the EI the candidate will score; and EI(μ, σ) ≥
// max(imp, 0) with imp = f* − μ − ξ, less the margin, a lower bound.
// The variance pass first solves the seeds, the candidates of highest
// upper bound; the cut is the larger of the k-th best seed EI and the
// k-th best lower bound, so at least k candidates score at or above it.
// A candidate whose upper bound stays below the cut cannot be one of
// the k, and its variance is never solved. If the survivors do not
// settle the k best on their own (decides), the rest are solved and
// every candidate is scored, as with no pruning.
func (mem *scratch) eiRanked(reg surrogate.Regressor, cands [][]float64, fBest float64, k int, sorted bool) eiOrder {
	n := len(cands)
	if k >= 1 && k < n {
		need, up := mem.need[:n], mem.upper[:n]
		seeds, lows := mem.seeds[:0], mem.lows[:0]
		higherUp := func(a, b int) bool { return up[a] > up[b] }
		for i, m := range mem.means {
			imp, sigma := fBest-m-eiMargin, mem.stds[i]
			slack := eiSlackAt(imp, sigma)
			up[i] = expectedImprovement(fBest, m, sigma, eiMargin) + float64(2*slack)
			if lb := max(imp, 0) - slack; lb > 0 {
				lows = keepTop(lows, k, lb, greater)
			}
			if !math.IsNaN(up[i]) { // a NaN bound is never a seed
				seeds = keepTop(seeds, (k/seedGroup+1)*seedGroup, i, higherUp)
			}
			need[i] = false
		}
		cut := math.Inf(-1)
		if len(lows) == k {
			cut = lows[k-1]
		}
		for _, i := range seeds {
			need[i] = true
		}
		reg.PredictStd(need, mem.stds)
		lows = lows[:0]
		for _, i := range seeds {
			if ei := expectedImprovement(fBest, mem.means[i], mem.stds[i], eiMargin); !math.IsNaN(ei) {
				lows = keepTop(lows, k, ei, greater)
			}
		}
		if len(lows) == k {
			cut = max(cut, lows[k-1])
		}
		mem.seeds, mem.lows = seeds, lows
		if cut > 0 {
			for i := range need {
				need[i] = !(up[i] < cut) // a NaN bound keeps its candidate
			}
			reg.PredictStd(need, mem.stds)
			if ss := mem.scoreEI(cands, fBest, need, sorted); ss.decides(cut, k, sorted) {
				return ss
			}
		}
	}
	reg.PredictStd(nil, mem.stds)
	return mem.scoreEI(cands, fBest, nil, sorted)
}

// seedGroup is how many seeds eiRanked solves per group of up to
// seedGroup−1 winners: two tiles of la.SolveTile columns, what one
// solve call takes at once.
const seedGroup = 16

// keepTop inserts x into top, which holds the at most k first elements
// seen so far in the order before sets, earlier ones first among equals.
func keepTop[T any](top []T, k int, x T, before func(a, b T) bool) []T {
	if len(top) == k && !before(x, top[k-1]) {
		return top
	}
	j := len(top)
	if j < k {
		top = append(top, x)
	} else {
		j = k - 1
	}
	for ; j > 0 && before(x, top[j-1]); j-- {
		top[j] = top[j-1]
	}
	top[j] = x
	return top
}

// greater orders float64s descending.
func greater(a, b float64) bool { return a > b }

// eiWinner returns the pool's first candidate of highest expected
// improvement, the async EI role's pick.
func (mem *scratch) eiWinner(reg surrogate.Regressor, cands [][]float64, fBest float64) []float64 {
	ss := mem.eiRanked(reg, cands, fBest, 1, false)
	bestEI, bestIdx := math.Inf(-1), 0
	for i := range ss {
		if ss[i].ei > bestEI {
			bestEI, bestIdx = ss[i].ei, i
		}
	}
	return ss[bestIdx].u
}

// scoreEI scores the candidates need selects (every one when need is
// nil) in pool order into mem.ranked, and sorts them if asked.
func (mem *scratch) scoreEI(cands [][]float64, fBest float64, need []bool, sorted bool) eiOrder {
	ss := mem.ranked[:0]
	for i, c := range cands {
		if need == nil || need[i] {
			ss = append(ss, scored{u: c, ei: expectedImprovement(fBest, mem.means[i], mem.stds[i], eiMargin)})
		}
	}
	mem.ranked = ss
	if sorted {
		sort.Sort(&mem.ranked)
	}
	return ss
}

// decides reports whether the survivors ss settle the k best on their
// own: no EI is NaN (a NaN orders against nothing), at least k reach
// the cut, which every pruned candidate stays below, and, sorted, the
// first k+1 are strictly ordered — a tie among them would leave their
// order to a sort that saw other elements than the full one.
func (ss eiOrder) decides(cut float64, k int, sorted bool) bool {
	above := 0
	for _, s := range ss {
		if math.IsNaN(s.ei) {
			return false
		}
		if s.ei >= cut {
			above++
		}
	}
	if above < k {
		return false
	}
	for i := 0; sorted && i < k && i+1 < len(ss); i++ {
		if !(ss[i].ei > ss[i+1].ei) {
			return false
		}
	}
	return true
}
