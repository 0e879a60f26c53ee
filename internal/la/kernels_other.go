//go:build !amd64

package la

func dotf(a, b []float64) float64 { return dotfGo(a, b) }

func dotf2(a0, a1, b []float64) (float64, float64) { return dotf2Go(a0, a1, b) }

func tileRow(l, x []float64, s *[SolveTile]float64) { tileRowGo(l, x, s) }

func tileRow2(l, x0, x1 []float64, s0, s1 *[SolveTile]float64) {
	tileRowGo(l, x0, s0)
	tileRowGo(l, x1, s1)
}

func solveRows(x, l []float64, n, rows, w int) { solveRowsDot(x, l, n, 0, rows, w) }

func trail(x, c []float64, n, rows, off int) { trailDot(x, c, n, 0, rows, off) }

func expPacked(dst, src []float64) int { return 0 }
