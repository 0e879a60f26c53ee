package surrogate

import (
	"math"

	"simcal/internal/la"
)

// negArgsGo and maternTileGo of fill.go on packed SSE2 registers
// (fill_amd64.s), each 128-bit lane one candidate. SSE2 is in the amd64
// baseline, so nothing is selected at run time, and a wider register
// would not help much: the fill's square roots and divisions go through
// a unit that takes about as long per value at any width.

// negArgsSSE2 is negArgsGo: each lane holds one candidate's sum of
// squared differences, accumulated in dimension order from zero, then
// takes SQRTPD, the multiply by sqrt5, the division by l and the sign
// flip. len(xt) must be a positive multiple of la.SolveTile, every row
// of xs at least len(xt)/la.SolveTile long, and len(tile) >=
// len(xs)*la.SolveTile.
//
//go:noescape
func negArgsSSE2(tile, xt []float64, xs [][]float64, sqrt5, l float64)

func negArgs(tile, xt []float64, xs [][]float64, l float64) {
	negArgsSSE2(tile[:len(xs)*la.SolveTile], xt, xs, math.Sqrt(5), l)
}

// maternTileSSE2 is maternTileGo, the mean's eight sums held in four
// registers and the eight largest values in four more, folded by MAXPD:
// max(km, k) is km where km > k and k otherwise, NaNs included, which is
// the Go loop's comparison. len(tile) and len(e) must be >=
// len(alpha)*la.SolveTile.
//
//go:noescape
func maternTileSSE2(tile, e, alpha []float64, m, km *[la.SolveTile]float64)

func maternTile(tile, e, alpha []float64, m, km *[la.SolveTile]float64) {
	n := len(alpha) * la.SolveTile
	maternTileSSE2(tile[:n], e[:n], alpha, m, km)
}
