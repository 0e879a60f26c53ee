//go:build !amd64

package la

func dotf(a, b []float64) float64 { return dotfGo(a, b) }

func dotf2(a0, a1, b []float64) (float64, float64) { return dotf2Go(a0, a1, b) }

func tileRow(l, x []float64, s *[SolveTile]float64) { tileRowGo(l, x, s) }
