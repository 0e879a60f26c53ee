package opt

import (
	"context"
	"math"
	"sort"
	"testing"

	"simcal/internal/core"
	"simcal/internal/opt/surrogate"
	"simcal/internal/stats"
)

// exhaustiveEI scores every candidate of pool with both passes and
// expectedImprovement, in pool order: the acquisition's scoring before
// the variance pass was pruned, which the pruned selection must
// reproduce bit for bit.
func exhaustiveEI(reg surrogate.Regressor, pool [][]float64, fBest float64) eiOrder {
	mean, std := make([]float64, len(pool)), make([]float64, len(pool))
	reg.PredictMean(pool, mean, std)
	reg.PredictStd(nil, std)
	ss := make(eiOrder, len(pool))
	for i, c := range pool {
		ss[i] = scored{u: c, ei: expectedImprovement(fBest, mean[i], std[i], eiMargin)}
	}
	return ss
}

// checkPrunedEI holds both drivers' pruned selections on pool to
// exhaustive scoring: the async EI role's first maximum in pool order,
// and batch BO's first k after sort.Sort for k from 1 to 4 (batches of
// up to 6), 7 and 15 (either side of a second group of seeds). Winners are compared by row identity (a duplicate row is
// another candidate) and by the bits of their EI.
func checkPrunedEI(t testing.TB, reg surrogate.Regressor, pool [][]float64, fBest float64) {
	t.Helper()
	all := exhaustiveEI(reg, pool, fBest)
	bestEI, bestIdx := math.Inf(-1), 0
	for i := range all {
		if all[i].ei > bestEI {
			bestEI, bestIdx = all[i].ei, i
		}
	}
	var mem scratch
	mem.meanPass(reg, pool)
	if got := mem.eiWinner(reg, pool, fBest); &got[0] != &pool[bestIdx][0] {
		t.Fatalf("fBest %v: async winner %v, exhaustive candidate %d %v (EI %v)", fBest, got, bestIdx, pool[bestIdx], bestEI)
	}
	sort.Sort(all)
	for _, k := range []int{1, 2, 3, 4, 7, 15} {
		if k >= len(pool) {
			break
		}
		mem.meanPass(reg, pool)
		ss := mem.eiRanked(reg, pool, fBest, k, true)
		if len(ss) < k {
			t.Fatalf("fBest %v k=%d: %d survivors", fBest, k, len(ss))
		}
		for i := 0; i < k; i++ {
			if &ss[i].u[0] != &all[i].u[0] || math.Float64bits(ss[i].ei) != math.Float64bits(all[i].ei) {
				t.Fatalf("fBest %v k=%d: rank %d is %v (EI %v), exhaustive %v (EI %v)", fBest, k, i, ss[i].u, ss[i].ei, all[i].u, all[i].ei)
			}
		}
	}
}

// prunePool returns size candidates in the unit cube of X's dimension:
// uniform draws and small moves away from training rows and, when
// ties is set, copies of training rows, duplicates of earlier
// candidates and a few with a NaN coordinate as well — which tie EIs
// or make them NaN, and so exercise the fallback.
func prunePool(rng *stats.RNG, X [][]float64, size int, ties bool) [][]float64 {
	d := len(X[0])
	pool := make([][]float64, size)
	for i := range pool {
		c := make([]float64, d)
		r := rng.Float64()
		if !ties {
			r *= 0.75
		}
		switch {
		case r < 0.4 || i == 0:
			for j := range c {
				c[j] = rng.Float64()
			}
		case r < 0.75:
			src := X[rng.Intn(len(X))]
			for j := range c {
				c[j] = clamp01(src[j] + rng.Normal(0, 0.03))
			}
		case r < 0.9:
			copy(c, X[rng.Intn(len(X))])
		case r < 0.98:
			copy(c, pool[rng.Intn(i)])
		default:
			c[rng.Intn(d)] = math.NaN()
		}
		pool[i] = c
	}
	return pool
}

// pruneProblem fits reg on n random rows of dimension d whose targets
// are scale·(a quadratic + noise), and returns the rows and targets, or
// nil where the fit fails (the driver then proposes at random).
func pruneProblem(reg surrogate.Regressor, rng *stats.RNG, n, d int, scale float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		s := 0.0
		for j := range X[i] {
			X[i][j] = rng.Float64()
			s += (X[i][j] - 0.3) * (X[i][j] - 0.3)
		}
		y[i] = scale * (s + 0.1*rng.Float64())
	}
	if reg.Fit(X, y) != nil {
		return nil, nil
	}
	return X, y
}

// pruneShifts place f* relative to the lowest target: above it (the
// usual case), at it, and far below (every improvement ≤ 0).
var pruneShifts = []float64{0.05, 0, -0.02, -3}

// TestPrunedEIMatchesExhaustive: on random GPs and pools — with
// duplicate candidates, candidates on training rows, pools where every
// improvement is ≤ 0, tied top EIs (the duplicates), and targets scaled
// to tiny and huge standard deviations — both drivers' pruned
// selections equal exhaustive scoring bit for bit, and so do a tree
// ensemble's, whose bound is its standard deviation itself. On the
// pools without ties most variances go unsolved.
func TestPrunedEIMatchesExhaustive(t *testing.T) {
	rng := stats.NewRNG(17)
	// Targets of scale 1e300 overflow the GP's standard deviation: every
	// mean is NaN, and the selections take the fallback.
	var plain surrogate.ScoreStats // tie-free pools at moderate scales
	for _, scale := range []float64{1, 1e-3, 1e3, 1e-200, 1e-300, 1e150, 1e300} {
		for _, n := range []int{3, 40, 130} {
			for _, d := range []int{1, 3, 7} {
				for _, ties := range []bool{false, true} {
					gp := surrogate.NewGP()
					X, y := pruneProblem(gp, rng, n, d, scale)
					if X == nil {
						continue
					}
					low := y[0]
					for _, v := range y {
						low = min(low, v)
					}
					for _, size := range []int{1, 17, 200, 512} {
						pool := prunePool(rng, X, size, ties)
						for _, shift := range pruneShifts {
							before := gp.ScoreStats()
							checkPrunedEI(t, gp, pool, low+eiMargin+shift*math.Abs(scale))
							if after := gp.ScoreStats(); !ties && shift > -1 && scale >= 1e-3 && scale <= 1e3 {
								plain.Scored += after.Scored - before.Scored
								plain.Solved += after.Solved - before.Solved
							}
						}
					}
				}
			}
		}
	}
	// Each check scores its pool 8 times, and its exhaustive reference
	// solves every candidate once.
	t.Logf("pools without ties: %d of %d candidates scored were solved", plain.Solved, plain.Scored)
	if 3*plain.Solved > plain.Scored {
		t.Errorf("the pruned selections solved %d of %d candidates scored", plain.Solved, plain.Scored)
	}
	rf := surrogate.NewRandomForest(3)
	X, y := pruneProblem(rf, rng, 60, 3, 1)
	pool := prunePool(rng, X, 300, true)
	for _, shift := range pruneShifts {
		checkPrunedEI(t, rf, pool, y[0]+eiMargin+shift)
	}
}

// TestProposalsMatchExhaustiveScoring drives both acquisitions through
// their own pools, drawn from the problem's stream: BO's proposeByEI at
// batch 2 to 6 and async-bo's EI role, each against exhaustive scoring
// of the pool it drew.
func TestProposalsMatchExhaustiveScoring(t *testing.T) {
	probe := &probeAlg{fn: func(ctx context.Context, prob *core.Problem) error {
		units := make([][]float64, 40)
		for i := range units {
			units[i] = prob.Space.Sample(prob.RNG)
		}
		if _, err := prob.Evaluate(ctx, units); err != nil {
			return err
		}
		var mem scratch
		X, y, _ := mem.trainingSet(prob, 400)
		gp := surrogate.NewGP()
		if err := gp.Fit(X, y); err != nil {
			return err
		}
		best := prob.Best()
		fBest := math.Log1p(best.Loss)
		for round := 0; round < 6; round++ {
			batch := 2 + round%5
			out := NewBOGP().proposeByEI(prob, &mem, gp, batch)
			all := exhaustiveEI(gp, mem.cands, fBest)
			sort.Sort(all)
			k := batch - 1
			if batch >= 3 {
				k = batch - 2
			}
			for i, u := range out[batch-k:] {
				if !equalBits(u, all[i].u) {
					t.Errorf("round %d batch %d: EI slot %d is %v, exhaustive %v", round, batch, i, u, all[i].u)
				}
			}
			a := &AsyncBayesOpt{}
			pick := a.pickCandidate(prob, &mem, gp, best, 2)
			want := exhaustiveEI(gp, mem.cands, fBest)
			bestEI, bestIdx := math.Inf(-1), 0
			for i := range want {
				if want[i].ei > bestEI {
					bestEI, bestIdx = want[i].ei, i
				}
			}
			if !equalBits(pick, want[bestIdx].u) {
				t.Errorf("round %d: async EI pick %v, exhaustive %v", round, pick, want[bestIdx].u)
			}
		}
		return nil
	}}
	c := &core.Calibrator{Space: optSpace3, Simulator: core.Evaluator(sphere3), Algorithm: probe, MaxEvaluations: 40, Seed: 23}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzPrunedEIMatchesExhaustive runs checkPrunedEI's oracle over GPs,
// pools and incumbents the fuzzer shapes: training size and dimension,
// the target scale's exponent, the pool size and f*'s offset.
func FuzzPrunedEIMatchesExhaustive(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), int16(0), uint16(100), 0.05)
	f.Add(int64(2), uint8(3), uint8(1), int16(-300), uint16(17), 0.0)
	f.Add(int64(3), uint8(60), uint8(7), int16(300), uint16(512), -3.0)
	f.Fuzz(func(t *testing.T, seed int64, n, d uint8, exp int16, size uint16, shift float64) {
		if n < 2 || n > 80 || d < 1 || d > 10 || size < 1 || size > 600 || exp < -320 || exp > 307 || math.IsNaN(shift) || math.IsInf(shift, 0) {
			t.Skip()
		}
		rng := stats.NewRNG(seed)
		scale := math.Pow(10, float64(exp))
		gp := surrogate.NewGP()
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = rng.Float64()
			}
			y[i] = scale * rng.Float64()
		}
		if gp.Fit(X, y) != nil {
			t.Skip()
		}
		low := y[0]
		for _, v := range y {
			low = min(low, v)
		}
		checkPrunedEI(t, gp, prunePool(rng, X, int(size), seed%2 == 0), low+eiMargin+shift*scale)
	})
}

// scoreCounter builds GPs for a calibration and keeps them, so a test
// can sum their ScoreStats once the calibration is over.
type scoreCounter []*surrogate.GP

func (s *scoreCounter) newGP(int64) surrogate.Regressor {
	g := surrogate.NewGP()
	*s = append(*s, g)
	return g
}

func (s scoreCounter) total() surrogate.ScoreStats {
	var t surrogate.ScoreStats
	for _, g := range s {
		st := g.ScoreStats()
		t.Scored += st.Scored
		t.Solved += st.Solved
	}
	return t
}

// TestVarianceSolvesPinned pins how many candidates' variances the GP
// solves over a seeded BO-GP calibration and a seeded async-bo one at
// one worker, out of how many it scores — a count, not a timing, so a
// change that solves more or fewer shows exactly — and holds an
// observed calibration, whose GP runs behind the acquisition's timing
// wrapper, to the same count and the same bits.
func TestVarianceSolvesPinned(t *testing.T) {
	want := map[string]surrogate.ScoreStats{
		"BO-GP":    {Scored: 8704, Solved: 4833},
		"async-bo": {Scored: 25088, Solved: 9337},
	}
	for _, tc := range gpCalibrations {
		t.Run(tc.name, func(t *testing.T) {
			var res [2]*core.Result
			var got [2]surrogate.ScoreStats
			for run, o := range []core.Observer{nil, &fitDetailObserver{}} {
				var gps scoreCounter
				alg := tc.alg()
				switch a := alg.(type) {
				case *BayesOpt:
					a.NewRegressor = gps.newGP
				case *AsyncBayesOpt:
					a.NewRegressor = gps.newGP
				}
				r, err := runGPCalibration(alg, tc.seed, o)
				if err != nil {
					t.Fatal(err)
				}
				res[run], got[run] = r, gps.total()
			}
			t.Logf("scored %d, solved %d", got[0].Scored, got[0].Solved)
			if got[0] != want[tc.name] {
				t.Errorf("unobserved: %+v, want %+v", got[0], want[tc.name])
			}
			if got[1] != got[0] {
				t.Errorf("observed: %+v, unobserved %+v", got[1], got[0])
			}
			if err := core.CheckIdentical(res[1], res[0]); err != nil {
				t.Errorf("observed run differs from the unobserved one: %v", err)
			}
		})
	}
}
