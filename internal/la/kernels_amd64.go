package la

// On amd64 the bodies of dotfGo, dotf2Go and tileRowGo run on packed
// SSE2 registers (kernels_amd64.s): each 128-bit lane holds one of the
// Go loop's accumulators and performs its multiply, then its add or
// subtract, in the Go loop's order, so every result is Float64bits-equal
// to the Go loop's. The tails, the reductions and the divisions stay in
// Go. SSE2 is in the amd64 baseline (GOAMD64=v1), so nothing is selected
// at run time.

// dotfSSE2 returns dotfGo's four accumulators after its unrolled loop,
// which covers the first len(a)&^3 elements. len(b) must be >= len(a).
//
//go:noescape
func dotfSSE2(a, b []float64) (s0, s1, s2, s3 float64)

// dotf2SSE2 is dotfSSE2 for two rows against one b, as in dotf2Go; it
// covers the first len(b)&^3 elements. len(a0) and len(a1) must be
// >= len(b).
//
//go:noescape
func dotf2SSE2(a0, a1, b []float64) (p0, p1, p2, p3, q0, q1, q2, q3 float64)

// tileRowSSE2 is tileRowGo. len(x) must be >= len(l)*SolveTile.
//
//go:noescape
func tileRowSSE2(l, x []float64, s *[SolveTile]float64)

func dotf(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	s0, s1, s2, s3 := dotfSSE2(a, b)
	for i := n &^ 3; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

func dotf2(a0, a1, b []float64) (float64, float64) {
	n := len(b)
	a0 = a0[:n]
	a1 = a1[:n]
	p0, p1, p2, p3, q0, q1, q2, q3 := dotf2SSE2(a0, a1, b)
	for i := n &^ 3; i < n; i++ {
		p0 += a0[i] * b[i]
		q0 += a1[i] * b[i]
	}
	return (p0 + p1) + (p2 + p3), (q0 + q1) + (q2 + q3)
}

func tileRow(l, x []float64, s *[SolveTile]float64) {
	tileRowSSE2(l, x[:len(l)*SolveTile], s)
}
