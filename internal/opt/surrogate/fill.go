package surrogate

import (
	"math"

	"simcal/internal/la"
)

// The Go loops of the scoring passes' per-element work on one tile of
// la.SolveTile candidates: negArgsGo fills each -s, maternTileGo
// finishes the kernel values, the mean's inner products and each
// candidate's largest kernel value, and sumSquares accumulates the
// variance's inner products. On amd64 the first two run as SSE2 kernels
// (fill_amd64.s) that perform the loop's operations in its order, two
// candidates per register, so their results are the loop's bit for
// bit; these loops are the reference the kernels are tested against and
// the path on every other GOARCH. sumSquares is the Go loop everywhere.

// negArgsGo is the kernel fill: for each training row i and each of a
// tile's la.SolveTile candidates c, whose coordinate d is
// xt[d*la.SolveTile+c], tile[i*la.SolveTile+c] =
// maternNegArg(dist(candidate c, xs[i]), l), bit for bit. Every row of
// xs and every candidate has len(xt)/la.SolveTile coordinates, and l is
// positive (Fit checks it).
func negArgsGo(tile, xt []float64, xs [][]float64, l float64) {
	const w = la.SolveTile
	for i, xi := range xs {
		row := tile[i*w : i*w+w]
		for c := range row {
			s := 0.0
			for d, v := range xi {
				e := xt[d*w+c] - v
				s += float64(e * e)
			}
			row[c] = -(math.Sqrt(5) * math.Sqrt(s) / l)
		}
	}
}

// maternTileGo finishes a tile's kernel values, tile[i*la.SolveTile+c]
// = maternFromExp(tile[…], e[…]), and accumulates the mean's inner
// products, m[c] += k·alpha[i], in ascending i. km[c] keeps the largest
// of itself and the column's values, row after row: it stays where it
// is greater than the row's value and takes the row's value otherwise,
// so a NaN row value replaces it and a later row's value replaces a
// NaN.
func maternTileGo(tile, e, alpha []float64, m, km *[la.SolveTile]float64) {
	const w = la.SolveTile
	for i, a := range alpha {
		row, ei := tile[i*w:i*w+w], e[i*w:i*w+w]
		for c, ns := range row {
			kv := maternFromExp(ns, ei[c])
			row[c] = kv
			m[c] += float64(kv * a)
			if !(km[c] > kv) {
				km[c] = kv
			}
		}
	}
}

// sumSquares accumulates the variance's inner products over a solved
// tile, v[c] += x·x for row after row.
func sumSquares(tile []float64, v *[la.SolveTile]float64) {
	const w = la.SolveTile
	for o := 0; o < len(tile); o += w {
		for c, x := range tile[o : o+w] {
			v[c] += float64(x * x)
		}
	}
}
