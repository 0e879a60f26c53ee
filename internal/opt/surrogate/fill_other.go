//go:build !amd64

package surrogate

import "simcal/internal/la"

func negArgs(tile, xt []float64, xs [][]float64, l float64) { negArgsGo(tile, xt, xs, l) }

func maternTile(tile, e, alpha []float64, m, km *[la.SolveTile]float64) {
	maternTileGo(tile, e, alpha, m, km)
}
