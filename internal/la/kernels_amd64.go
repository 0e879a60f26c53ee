package la

import "math"

// On amd64, Exp, the two-tile row update and the Cholesky's row solve
// and trailing update run as AVX kernels (kernels_amd64.s) exactly when
// math.Exp takes its own AVX+FMA path: useAVXFMA. Only Exp's kernel
// fuses; the others keep the Go loops' separate multiply and add, so
// their results are Float64bits-equal to the loops in kernels.go.
// Without useAVXFMA, amd64 runs those loops, as every other GOARCH does.

// useAVXFMA reports whether math.Exp runs its AVX+FMA path in this
// process, found by asking math.Exp rather than the CPU: that path is
// what the packed Exp reproduces, and math.Exp leaves it when GODEBUG
// turns off cpu.fma or cpu.avx on a CPU that has both. That path
// requires AVX, so true also clears tileRow2AVX.
var useAVXFMA = func() bool {
	for _, p := range expProbe {
		if math.Float64bits(math.Exp(p.x)) != p.fma {
			return false
		}
	}
	return true
}()

// tileRow2AVX is tileRow on (x0, s0) and on (x1, s1) in one pass.
//
//go:noescape
func tileRow2AVX(l, x0, x1 []float64, s0, s1 *[SolveTile]float64)

// solve4AVX is solveRowsDot on rows 0 to 3 of x, the four advancing
// through the columns together: each row's four dotf accumulators sit
// in one YMM register, its tail and reduction in the low XMM half.
// len(x) must be >= 3*n+w and len(l) >= (w-1)*n+w.
//
//go:noescape
func solve4AVX(x, l []float64, n, w int)

// trail4x2AVX is trailDot's update of columns [0, 2*pairs) on rows 0
// to 3 of x, four rows by two columns at a time, each of the eight
// entries' dotf accumulators in one YMM register. Every column must lie
// below the diagonal of all four rows. len(x) must be >=
// 3*n+cholBlock+2*pairs and len(c) >= (2*pairs-1)*n+cholBlock.
//
//go:noescape
func trail4x2AVX(x, c []float64, n, pairs int)

// The trailing kernel's segments are cholBlock long, 512 bytes in its
// loop bound and output offset.
var _ [cholBlock - 64]struct{}
var _ [64 - cholBlock]struct{}

// expAVXFMA sets dst[i] = math.Exp(src[i]) four lanes at a time up to
// the first group of four that holds an argument outside [-700, 700] or
// a NaN, and returns how many it set. len(src) must be a multiple of 4,
// len(dst) >= len(src).
//
//go:noescape
func expAVXFMA(dst, src []float64) (done int)

func tileRow2(l, x0, x1 []float64, s0, s1 *[SolveTile]float64) {
	if useAVXFMA {
		m := len(l) * SolveTile
		tileRow2AVX(l, x0[:m], x1[:m], s0, s1)
		return
	}
	tileRow(l, x0, s0)
	tileRow(l, x1, s1)
}

func solveRows(x, l []float64, n, rows, w int) {
	r := 0
	if useAVXFMA && w > 0 {
		lw := l[:(w-1)*n+w]
		for ; r+4 <= rows; r += 4 {
			solve4AVX(x[r*n:(r+3)*n+w], lw, n, w)
		}
	}
	solveRowsDot(x, l, n, r, rows, w)
}

func trail(x, c []float64, n, rows, off int) {
	r := 0
	if useAVXFMA {
		for ; r+4 <= rows; r += 4 {
			// Columns [0, off+r] lie below the diagonal of all four rows;
			// the rest of the 4×4 triangle goes through dotf.
			p := (off + r + 1) / 2
			if p > 0 {
				trail4x2AVX(x[r*n:(r+3)*n+cholBlock+2*p], c[:(2*p-1)*n+cholBlock], n, p)
			}
			for i := r; i < r+4; i++ {
				xi := x[i*n : i*n+cholBlock+off+i+1]
				for q := 2 * p; q <= off+i; q++ {
					xi[cholBlock+q] -= dotf(xi[:cholBlock], c[q*n:q*n+cholBlock])
				}
			}
		}
	}
	trailDot(x, c, n, r, rows, off)
}

// expPacked sets dst[i] = math.Exp(src[i]) for the first len(src)&^3
// elements on the packed path, handing each group of four it refuses to
// math.Exp, and returns how many it set: none without useAVXFMA. Exp
// does the rest.
func expPacked(dst, src []float64) int {
	n := len(src) &^ 3
	if !useAVXFMA {
		return 0
	}
	for i := 0; i < n; i += 4 {
		i += expAVXFMA(dst[i:n], src[i:n])
		for j := i; j < i+4 && j < n; j++ {
			dst[j] = math.Exp(src[j])
		}
	}
	return n
}
