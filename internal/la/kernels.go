package la

import "math"

// Exp sets dst[i] = math.Exp(src[i]) for every i, bit for bit. On amd64
// whose math.Exp runs its AVX+FMA path, Exp runs that path's operations
// on four lanes at once (kernels_amd64.s), and any group of four holding
// an argument outside [-700, 700] or a NaN goes to math.Exp. dst must be
// at least as long as src, and the two must be the same slice or not
// overlap.
func Exp(dst, src []float64) {
	dst = dst[:len(src)]
	for i := expPacked(dst, src); i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}

// expProbe holds arguments on which math.Exp's two amd64 paths round
// differently, each with the bits its AVX+FMA path returns
// (useAVXFMA).
var expProbe = [...]struct {
	x   float64
	fma uint64
}{
	{-0.14, 0x3febd1c85cb179fb},
	{-0.2, 0x3fea330ad6166159},
	{-0.4, 0x3fe57343067270ed},
}

// The Go inner loops of the Cholesky and the tiled solve. dotf, dotf2
// and tileRow run as written on every GOARCH. Where useAVXFMA holds,
// tileRow2, two tileRow calls in one pass, and the Cholesky's row solve
// and trailing update run as whole kernels several rows at a time
// (kernels_amd64.s), in these loops' operation order: the loops are the
// reference their bits are tested against, and the path everywhere
// else (kernels_other.go).

// solveRowsDot is the Cholesky's row solve on rows [r, rows) of x, one
// row every n values: for j < w in order, x[j] = (x[j] -
// dotf(x[:j], lj[:j])) / lj[j] with lj = l[j*n:], a finished row of the
// diagonal block. It is how the panel below a column block is solved,
// and the part of the diagonal block left of a group of its rows.
func solveRowsDot(x, l []float64, n, r, rows, w int) {
	for ; r < rows; r++ {
		xr := x[r*n : r*n+w]
		for j := range xr {
			lj := l[j*n : j*n+j+1]
			xr[j] = (xr[j] - dotf(xr[:j], lj[:j])) / lj[j]
		}
	}
}

// trailDot is the Cholesky's trailing update on rows [r, rows) of x,
// one row every n values, each row's cholBlock-long panel segment first
// and its trailing entries after it: for q in [0, off+row],
// x[cholBlock+q] -= dotf(x[:cholBlock], c[q*n:][:cholBlock]), where
// c[q*n:] is the panel segment of trailing column q, and q = off+row is
// the row's own diagonal. Rows go in pairs sharing each column's loads
// (dotf2); each entry's value does not depend on the pairing.
func trailDot(x, c []float64, n, r, rows, off int) {
	for ; r+1 < rows; r += 2 {
		x0, x1 := x[r*n:], x[(r+1)*n:]
		s0, s1 := x0[:cholBlock], x1[:cholBlock]
		for q := 0; q <= off+r; q++ {
			d0, d1 := dotf2(s0, s1, c[q*n:q*n+cholBlock])
			x0[cholBlock+q] -= d0
			x1[cholBlock+q] -= d1
		}
		x1[cholBlock+off+r+1] -= dotf(s1, s1)
	}
	if r < rows {
		xr := x[r*n:]
		for q := 0; q <= off+r; q++ {
			xr[cholBlock+q] -= dotf(xr[:cholBlock], c[q*n:q*n+cholBlock])
		}
	}
}

// dotf is the blocked factorization's inner product: four independent
// accumulators reduced in a fixed order, so it is deterministic while
// giving the scheduler instruction-level parallelism a single serial
// accumulator cannot.
func dotf(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	b = b[:n] // bounds-check hint
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	for ; i < n; i++ {
		s0 += float64(a[i] * b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// dotf2 computes dotf(a0, b) and dotf(a1, b) in one pass, sharing the
// loads of b. The accumulator layout per output is identical to dotf's,
// so each result is bitwise equal to the corresponding dotf call —
// required so that pairing rows in the trailing update cannot change
// the factorization's bits.
func dotf2(a0, a1, b []float64) (float64, float64) {
	var p0, p1, p2, p3 float64
	var q0, q1, q2, q3 float64
	n := len(b)
	a0 = a0[:n]
	a1 = a1[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		p0 += float64(a0[i] * b0)
		p1 += float64(a0[i+1] * b1)
		p2 += float64(a0[i+2] * b2)
		p3 += float64(a0[i+3] * b3)
		q0 += float64(a1[i] * b0)
		q1 += float64(a1[i+1] * b1)
		q2 += float64(a1[i+2] * b2)
		q3 += float64(a1[i+3] * b3)
	}
	for ; i < n; i++ {
		p0 += float64(a0[i] * b[i])
		q0 += float64(a1[i] * b[i])
	}
	return (p0 + p1) + (p2 + p3), (q0 + q1) + (q2 + q3)
}

// tileRow is SolveLowerTile's row update: s[c] -= l[j]*x[j*SolveTile+c]
// for j in order, with the eight subtraction chains held in registers.
func tileRow(l, x []float64, s *[SolveTile]float64) {
	s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	for j, v := range l {
		xj := (*[SolveTile]float64)(x[j*SolveTile:])
		s0 -= float64(v * xj[0])
		s1 -= float64(v * xj[1])
		s2 -= float64(v * xj[2])
		s3 -= float64(v * xj[3])
		s4 -= float64(v * xj[4])
		s5 -= float64(v * xj[5])
		s6 -= float64(v * xj[6])
		s7 -= float64(v * xj[7])
	}
	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = s0, s1, s2, s3, s4, s5, s6, s7
}
