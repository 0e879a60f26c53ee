package surrogate

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"simcal/internal/la"
	"simcal/internal/resilience"
)

// TestFillKernelsMatchGoBitwise: negArgs and maternTile, on amd64
// packed SSE2 kernels, carry the bits of their Go loops — negArgs
// at every dimension from 1 to 12 — on unaligned slices and with values
// that drive lanes through zeros, subnormals, infinities, NaNs and
// overflowing squares. maternTile's largest kernel values are held to
// the Go loop's too, here and on the tiles of maternMaxTiles.
func TestFillKernelsMatchGoBitwise(t *testing.T) {
	const w = la.SolveTile
	rng := rand.New(rand.NewSource(9))
	edge := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 0x1p-1030, 1e200, -1e200,
	}
	coord := func(p float64) float64 {
		if rng.Float64() < p {
			return edge[rng.Intn(len(edge))]
		}
		return rng.Float64()
	}
	for _, p := range []float64{0, 0.05, 0.3} {
		for dims := 1; dims <= 12; dims++ {
			for _, rows := range []int{0, 1, 2, 7, 33} {
				xt := make([]float64, dims*w+1)[1:]
				for i := range xt {
					xt[i] = coord(p)
				}
				xs := make([][]float64, rows)
				for i := range xs {
					xs[i] = make([]float64, dims+1)[1:]
					for d := range xs[i] {
						xs[i][d] = coord(p)
					}
				}
				for _, l := range []float64{0.1, 0.7, 1e-300, math.Inf(1)} {
					got := make([]float64, rows*w+1)[1:]
					want := make([]float64, rows*w)
					negArgs(got, xt, xs, l)
					negArgsGo(want, xt, xs, l)
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("p=%v dims=%d rows=%d l=%v: entry %d = %v, Go loop %v", p, dims, rows, l, i, got[i], want[i])
						}
					}
				}
			}
		}
		for _, rows := range []int{0, 1, 2, 7, 33} {
			tile := make([]float64, rows*w+1)[1:]
			e := make([]float64, rows*w+1)[1:]
			alpha := make([]float64, rows+1)[1:]
			for i := range tile {
				tile[i], e[i] = -coord(p)*3, coord(p)
			}
			for i := range alpha {
				alpha[i] = coord(p) - 0.5
			}
			var gotM, wantM, gotK, wantK [w]float64
			for c := range gotM {
				gotM[c], gotK[c] = coord(p), coord(p)
			}
			wantM, wantK = gotM, gotK
			want := append([]float64(nil), tile...)
			maternTile(tile, e, alpha, &gotM, &gotK)
			maternTileGo(want, e, alpha, &wantM, &wantK)
			for i := range want {
				if !sameBits(tile[i], want[i]) {
					t.Fatalf("p=%v rows=%d: maternTile entry %d = %v, Go loop %v", p, rows, i, tile[i], want[i])
				}
			}
			for c := range gotM {
				if !sameBits(gotM[c], wantM[c]) {
					t.Fatalf("p=%v rows=%d col %d: mean sum %v, Go loop %v", p, rows, c, gotM[c], wantM[c])
				}
				if !sameBits(gotK[c], wantK[c]) {
					t.Fatalf("p=%v rows=%d col %d: largest value %v, Go loop %v", p, rows, c, gotK[c], wantK[c])
				}
			}
		}
	}
	for name, rows := range maternMaxTiles() {
		// With -s = 0 the kernel value is its exponential, exactly: the
		// rows below are the tile's kernel values.
		tile, e := make([]float64, len(rows)*w), make([]float64, 0, len(rows)*w)
		alpha := make([]float64, len(rows))
		for i, row := range rows {
			e = append(e, row[:]...)
			alpha[i] = 0.25 * float64(i+1)
		}
		for _, start := range []float64{0, math.Copysign(0, -1), math.NaN(), 1} {
			var gotM, wantM, gotK, wantK [w]float64
			for c := range gotK {
				gotK[c], wantK[c] = start, start
			}
			want := append([]float64(nil), tile...)
			maternTile(tile, e, alpha, &gotM, &gotK)
			maternTileGo(want, e, alpha, &wantM, &wantK)
			for c := range gotK {
				if !sameBits(gotK[c], wantK[c]) {
					t.Fatalf("%s, from %v: col %d largest value %v, Go loop %v", name, start, c, gotK[c], wantK[c])
				}
			}
			clear(tile)
		}
	}
}

// maternMaxTiles are tiles of kernel values, by name, on which a
// running maximum can go wrong: NaNs, zeros of either sign, exact ties,
// and NaN rows followed by finite ones.
func maternMaxTiles() map[string][][la.SolveTile]float64 {
	nan, neg0 := math.NaN(), math.Copysign(0, -1)
	return map[string][][la.SolveTile]float64{
		"NaN": {
			{nan, 1, 0.5, nan, 0, 2, nan, 0.25},
			{0.5, nan, nan, 1, nan, 0, 3, nan},
		},
		"signed zeros": {
			{neg0, 0, neg0, 0, 0, neg0, neg0, 0},
			{0, neg0, neg0, 0, neg0, 0, 0, neg0},
			{neg0, neg0, 0, 0, 0, 0, neg0, neg0},
		},
		"ties": {
			{1, 1, 0.5, 0.5, 0, 0, 2, 2},
			{1, 0.5, 0.5, 1, 0, 1, 2, 0},
			{1, 1, 0.5, 0.5, 0, 0, 2, 2},
		},
		"NaN row then finite row": {
			{nan, nan, nan, nan, nan, nan, nan, nan},
			{0.5, neg0, 0, 1, 2, 0.25, 0.75, 0.125},
		},
		"finite, NaN, finite": {
			{3, 2, 1, 0, neg0, 0.5, 1, 2},
			{nan, nan, nan, nan, nan, nan, nan, nan},
			{0.5, 0.5, 2, neg0, 0, 0.25, 1, 3},
		},
	}
}

// sameBits is Float64bits equality, except that two NaNs compare equal:
// which operand's payload a NaN-producing operation keeps is not
// specified.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestGPWorkerPanicReachesCaller: a panic in Fit or PredictBatch, on a
// worker goroutine or not, reaches the calling goroutine, where
// resilience.Safely turns it into a *resilience.PanicError instead of
// the process ending.
func TestGPWorkerPanicReachesCaller(t *testing.T) {
	X, y := trainOn(40, 3, 71, quadratic)
	for _, workers := range []int{1, 2} {
		g := &GP{LengthScales: []float64{0.1, 0.2, 0.5, 0}, FitWorkers: workers}
		err := resilience.Safely(func() error { return g.Fit(X, y) })
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("FitWorkers=%d: Fit with a zero length scale returned %v, want a *resilience.PanicError", workers, err)
		}
	}
	g := &GP{FitWorkers: 2}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// 200 candidates are four chunks; one of the last, one coordinate too
	// long, indexes past the end of every training row.
	pool, _ := trainOn(200, 3, 72, quadratic)
	pool[190] = append(pool[190], 0.5)
	for _, workers := range []int{1, 2} {
		g.PredictWorkers = workers
		mean, std := make([]float64, len(pool)), make([]float64, len(pool))
		err := resilience.Safely(func() error {
			PredictBatch(g, pool, mean, std)
			return nil
		})
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("PredictWorkers=%d: PredictBatch on a malformed candidate returned %v, want a *resilience.PanicError", workers, err)
		}
	}
}
