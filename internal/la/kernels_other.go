//go:build !amd64

package la

func tileRow2(l, x0, x1 []float64, s0, s1 *[SolveTile]float64) {
	tileRow(l, x0, s0)
	tileRow(l, x1, s1)
}

func solveRows(x, l []float64, n, rows, w int) { solveRowsDot(x, l, n, 0, rows, w) }

func trail(x, c []float64, n, rows, off int) { trailDot(x, c, n, 0, rows, off) }

func expPacked(dst, src []float64) int { return 0 }
