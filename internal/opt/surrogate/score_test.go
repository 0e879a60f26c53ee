package surrogate

import (
	"math"
	"math/rand"
	"testing"
)

// TestGPPassesMatchPredict: after the mean pass every mean is Predict's
// and every std entry is at least Predict's standard deviation (the
// bound); variance passes over runs of candidates, then over random
// selections, one after another, write exactly the selected candidates
// not yet solved, each with
// Predict's bits, and count them. Pools hold candidates on training
// rows, where the bound is nearly attained, at every pool size up to
// 140 and worker counts 1 to 3.
func TestGPPassesMatchPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range []int{1, 3, 7} {
		for _, n := range []int{3, 8, 65} {
			X, y := trainOn(n, d, int64(70+n), quadratic)
			g := NewGP()
			if err := g.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			pool, _ := trainOn(140, d, int64(80+n), quadratic)
			for i := 0; i < len(pool); i += 5 {
				pool[i] = append([]float64(nil), X[rng.Intn(n)]...)
			}
			wantMean, wantStd := predictSerial(g, pool)
			for size := 1; size <= len(pool); size += 1 + size/8 {
				for workers := 1; workers <= 3; workers++ {
					g.PredictWorkers = workers
					mean, std := make([]float64, size), make([]float64, size)
					g.PredictMean(pool[:size], mean, std)
					for i := range mean {
						if math.Float64bits(mean[i]) != math.Float64bits(wantMean[i]) {
							t.Fatalf("d=%d n=%d size=%d cand %d: mean %v, Predict %v", d, n, size, i, mean[i], wantMean[i])
						}
						if !(std[i] >= wantStd[i]) {
							t.Fatalf("d=%d n=%d size=%d cand %d: bound %v below Predict's std %v", d, n, size, i, std[i], wantStd[i])
						}
					}
					solved := make([]bool, size)
					for pass := 0; pass < 3; pass++ {
						need := make([]bool, size)
						fresh := 0
						for i := range need {
							// Runs of 11 from offset 3 first: whole tiles
							// and tiles cut at either end.
							need[i] = pass == 0 && i%20 >= 3 && i%20 < 14 || pass > 0 && rng.Intn(3) == 0
							if need[i] && !solved[i] {
								fresh++
							}
						}
						before := g.ScoreStats().Solved
						g.PredictStd(need, std)
						if got := g.ScoreStats().Solved - before; got != fresh {
							t.Fatalf("d=%d n=%d size=%d pass %d: solved %d, want %d", d, n, size, pass, got, fresh)
						}
						for i := range need {
							solved[i] = solved[i] || need[i]
							if solved[i] && math.Float64bits(std[i]) != math.Float64bits(wantStd[i]) {
								t.Fatalf("d=%d n=%d size=%d pass %d cand %d: std %v, Predict %v", d, n, size, pass, i, std[i], wantStd[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestGPBoundWithFailingSolve: with a zero on the factor's diagonal the
// solve fails and the standard deviation is the target scale, which
// the mean pass's bound must then not undercut.
func TestGPBoundWithFailingSolve(t *testing.T) {
	X, y := trainOn(30, 3, 63, quadratic)
	pool := append(X[:5:5], X[10:20]...) // on training rows: the tightest bounds
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	g.chol.Set(17, 17, 0)
	_, wantStd := predictSerial(g, pool)
	mean, std := make([]float64, len(pool)), make([]float64, len(pool))
	g.PredictMean(pool, mean, std)
	for i := range pool {
		if !(std[i] >= wantStd[i]) {
			t.Errorf("cand %d: bound %v below the failed solve's std %v", i, std[i], wantStd[i])
		}
	}
}

// TestGPPredictStdBeforeMeanPassPanics: a variance pass needs the mean
// pass of its pool; after a Fit there is none.
func TestGPPredictStdBeforeMeanPassPanics(t *testing.T) {
	X, y := trainOn(20, 2, 1, quadratic)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	mean, std := make([]float64, len(X)), make([]float64, len(X))
	g.PredictMean(X, mean, std)
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic: the pool's kernel vectors belong to the previous fit")
		}
	}()
	g.PredictStd(nil, std)
}

// gpScoringAllocCeiling is the ceiling on allocations for a warm GP
// scoring a 512-candidate pool as the acquisition does — the mean pass,
// a variance pass over one group of seeds and one over the survivors —
// at PredictWorkers 2: one goroutine for each pass with work for two
// workers, the per-call state being the GP's. At PredictWorkers 1 the
// passes allocate nothing.
const gpScoringAllocCeiling = 2

// TestGPScoringAllocations holds a warm GP's two passes to
// gpScoringAllocCeiling.
func TestGPScoringAllocations(t *testing.T) {
	X, y := trainOn(400, 7, 7, quadratic)
	pool, _ := trainOn(512, 7, 8, quadratic)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	mean, std := make([]float64, len(pool)), make([]float64, len(pool))
	seeds, survivors := make([]bool, len(pool)), make([]bool, len(pool))
	for i := 0; i < 16; i++ {
		seeds[i*31] = true
	}
	for i := 0; i < 48; i++ {
		survivors[i*10] = true
	}
	score := func() {
		g.PredictMean(pool, mean, std)
		g.PredictStd(seeds, std)
		g.PredictStd(survivors, std)
	}
	for _, tc := range []struct{ workers, ceiling int }{{1, 0}, {2, gpScoringAllocCeiling}} {
		g.PredictWorkers = tc.workers
		score()
		if got := testing.AllocsPerRun(20, score); got > float64(tc.ceiling) {
			t.Errorf("PredictWorkers=%d: %v allocations per scored pool, ceiling %d", tc.workers, got, tc.ceiling)
		}
	}
}

// TestGPMeanPassBoundsFromLargestKernelValue: the bound the mean pass
// writes for each candidate, its largest kernel value taken inside the
// Matérn finish, is stdBound of a separate running maximum over the
// candidate's kernel vector in the pool, bit for bit — for tile pairs,
// single tiles and remainders, and for candidates on training rows.
func TestGPMeanPassBoundsFromLargestKernelValue(t *testing.T) {
	for _, n := range []int{1, 9, 70} {
		X, y := trainOn(n, 4, int64(90+n), quadratic)
		g := NewGP()
		if err := g.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		pool, _ := trainOn(157, 4, int64(91+n), quadratic)
		for i := 0; i < len(pool); i += 7 {
			pool[i] = X[i%n]
		}
		mean, std := make([]float64, len(pool)), make([]float64, len(pool))
		g.PredictMean(pool, mean, std)
		if !g.pool.tight {
			t.Fatalf("n=%d: the mean pass offers no bound from the kernel values", n)
		}
		for c := range pool {
			base, stride := g.pool.column(c, n)
			km := 0.0
			for i := 0; i < n; i++ {
				if v := g.pool.kstar[base+i*stride]; !(km > v) {
					km = v
				}
			}
			if want := g.stdBound(km); math.Float64bits(std[c]) != math.Float64bits(want) {
				t.Fatalf("n=%d cand %d: bound %v, from the largest of its kernel vector %v", n, c, std[c], want)
			}
		}
	}
}
