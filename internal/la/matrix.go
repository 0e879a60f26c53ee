// Package la provides the small dense linear-algebra kernel used by the
// surrogate models in the Bayesian-optimization implementation: dense
// matrices, Cholesky factorization, and triangular solves.
//
// The package is deliberately minimal: it targets the sizes that arise
// in simulation calibration (hundreds of rows, tens of columns) and
// depends only on the standard library. The Cholesky and multi-RHS
// solve routines sit on the surrogate hot path (they run once per
// length-scale candidate per BO iteration), so their inner loops are
// blocked and slice-indexed — no per-element At/Set — and the
// factorization supports in-place extension of a previously factored
// leading block (CholeskyExtendInPlace), the operation behind the GP's
// incremental refit. All routines are strictly deterministic: a fixed
// operation order, no data-dependent reductions.
package la

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-initialized rows×cols matrix.
// It panics if either dimension is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("la: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
// It panics if rows is empty or ragged.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("la: FromRows requires at least one non-empty row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("la: FromRows given ragged rows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RawRow returns row i as a live view into the matrix storage: writes
// through the returned slice mutate the matrix. It exists for hot loops
// (kernel fills, batched solves) that cannot afford per-element At/Set.
func (m *Matrix) RawRow(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Reshape makes m a rows×cols matrix over its backing array, replacing
// the array with one of twice the needed size when it is too small, and
// reports whether it did. The zero Matrix is a valid receiver. Contents
// afterwards are unspecified (the row stride moved under them): Reshape
// is for buffers whose every cell the caller writes before reading it,
// such as a kernel matrix whose size changes from one fit to the next.
func (m *Matrix) Reshape(rows, cols int) (grew bool) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("la: invalid matrix dimensions %dx%d", rows, cols))
	}
	need := rows * cols
	if grew = need > cap(m.data); grew {
		m.data = make([]float64, need, 2*need)
	}
	m.rows, m.cols, m.data = rows, cols, m.data[:need]
	return grew
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m·b.
// It panics on a dimension mismatch.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("la: Mul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mi {
			if mv == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range bk {
				oi[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x.
// It panics if len(x) != Cols().
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("la: MulVec dimension mismatch")
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("la: matrix is not positive definite")

// cholBlock is the column-block width of the blocked Cholesky. The
// trailing update then works on contiguous length-cholBlock row
// segments (512 bytes) that stay resident in L1 while a whole trailing
// row sweep streams past them.
const cholBlock = 64

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
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
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
		p0 += a0[i] * b0
		p1 += a0[i+1] * b1
		p2 += a0[i+2] * b2
		p3 += a0[i+3] * b3
		q0 += a1[i] * b0
		q1 += a1[i+1] * b1
		q2 += a1[i+2] * b2
		q3 += a1[i+3] * b3
	}
	for ; i < n; i++ {
		p0 += a0[i] * b[i]
		q0 += a1[i] * b[i]
	}
	return (p0 + p1) + (p2 + p3), (q0 + q1) + (q2 + q3)
}

// Cholesky computes the lower-triangular factor L such that m = L·Lᵀ.
// The input must be square and symmetric positive definite; otherwise
// ErrNotPositiveDefinite is returned. The input is not modified; use
// CholeskyInPlace to factorize without the copy.
func Cholesky(m *Matrix) (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("la: Cholesky of non-square %dx%d matrix", m.rows, m.cols)
	}
	l := m.Clone()
	if err := CholeskyInPlace(l); err != nil {
		return nil, err
	}
	// Zero the strictly upper triangle so l is a proper triangular matrix.
	n := l.rows
	for i := 0; i < n-1; i++ {
		row := l.data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			row[j] = 0
		}
	}
	return l, nil
}

// CholeskyInPlace overwrites the lower triangle (including the
// diagonal) of the square matrix a with its Cholesky factor L. Only the
// lower triangle of a is read; the strictly upper triangle is left
// untouched, so callers that follow up with SolveLower/CholSolve (which
// read only the lower triangle) need not clear it. On error the lower
// triangle is left partially overwritten.
func CholeskyInPlace(a *Matrix) error {
	return CholeskyExtendInPlace(a, 0)
}

// CholeskyExtendInPlace computes rows [start, n) of the Cholesky factor
// of a, in place, assuming rows [0, start) already hold the
// corresponding rows of the factor — i.e. the leading start×start block
// was factored by a previous call on the identical leading submatrix.
// Rows at and above start must hold the (symmetric) input values in
// their lower triangle. This is the incremental-refit primitive: when a
// kernel matrix grows by appended rows, refactoring costs
// O((n−start)·n²) instead of O(n³/3), and because the per-row operation
// sequence does not depend on start, the extended factor is bitwise
// identical to a from-scratch factorization of the full matrix.
//
// Only the lower triangle is read or written; rows below start are
// never written. start==0 is a full factorization.
func CholeskyExtendInPlace(a *Matrix, start int) error {
	n := a.rows
	if a.cols != n {
		return fmt.Errorf("la: Cholesky of non-square %dx%d matrix", n, a.cols)
	}
	if start < 0 || start > n {
		return fmt.Errorf("la: CholeskyExtendInPlace start %d out of range [0,%d]", start, n)
	}
	// Blocked right-looking factorization. For each column block
	// [k0,k1): factor the diagonal block, solve the panel below it, then
	// subtract the block's outer-product contribution from the trailing
	// rows. Every write lands in rows >= start; rows below start are
	// only read (they hold the previously computed factor).
	for k0 := 0; k0 < n; k0 += cholBlock {
		k1 := k0 + cholBlock
		if k1 > n {
			k1 = n
		}
		// (1) Diagonal block: rows [max(k0,start), k1).
		i0 := k0
		if i0 < start {
			i0 = start
		}
		for i := i0; i < k1; i++ {
			ri := a.data[i*n : i*n+n]
			for j := k0; j < i; j++ {
				rj := a.data[j*n : j*n+n]
				ri[j] = (ri[j] - dotf(ri[k0:j], rj[k0:j])) / rj[j]
			}
			d := ri[i] - dotf(ri[k0:i], ri[k0:i])
			if d <= 0 || math.IsNaN(d) {
				return ErrNotPositiveDefinite
			}
			ri[i] = math.Sqrt(d)
		}
		// (2) Panel solve: rows [max(k1,start), n), columns [k0,k1).
		p0 := k1
		if p0 < start {
			p0 = start
		}
		for i := p0; i < n; i++ {
			ri := a.data[i*n : i*n+n]
			for j := k0; j < k1; j++ {
				rj := a.data[j*n : j*n+n]
				ri[j] = (ri[j] - dotf(ri[k0:j], rj[k0:j])) / rj[j]
			}
		}
		// (3) Trailing update: subtract this block's contribution from
		// the not-yet-factored lower triangle. Rows are processed in
		// pairs sharing each rj segment load (dotf2); each element's
		// value is independent of the pairing, so the result is bitwise
		// identical to the single-row sweep.
		i := p0
		for ; i+1 < n; i += 2 {
			ri := a.data[i*n : i*n+n]
			ri1 := a.data[(i+1)*n : (i+1)*n+n]
			seg, seg1 := ri[k0:k1], ri1[k0:k1]
			for j := k1; j <= i; j++ {
				rj := a.data[j*n+k0 : j*n+k1]
				d0, d1 := dotf2(seg, seg1, rj)
				ri[j] -= d0
				ri1[j] -= d1
			}
			ri1[i+1] -= dotf(seg1, ri1[k0:k1])
		}
		if i < n {
			ri := a.data[i*n : i*n+n]
			seg := ri[k0:k1]
			for j := k1; j <= i; j++ {
				rj := a.data[j*n : j*n+n]
				ri[j] -= dotf(seg, rj[k0:k1])
			}
		}
	}
	return nil
}

// SolveLower solves L·x = b for x where L is lower triangular
// (forward substitution). It panics on dimension mismatch and returns an
// error if a diagonal entry is zero.
func SolveLower(l *Matrix, b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := SolveLowerInto(l, b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveLowerInto solves L·x = b into the caller-provided x, letting hot
// paths (batched GP prediction) reuse one buffer across many solves.
// The operation order is exactly SolveLower's, so the result is bitwise
// identical. x must not alias b.
func SolveLowerInto(l *Matrix, b, x []float64) error {
	n := l.rows
	if l.cols != n || len(b) != n || len(x) != n {
		panic("la: SolveLowerInto dimension mismatch")
	}
	for i := 0; i < n; i++ {
		ri := l.data[i*n : i*n+n]
		s := b[i]
		for j, v := range ri[:i] {
			s -= v * x[j]
		}
		d := ri[i]
		if d == 0 {
			return errSingularLower
		}
		x[i] = s / d
	}
	return nil
}

// SolveTile is the number of right-hand sides SolveLowerTile carries at
// once. Eight subtraction chains are enough to keep the scalar
// floating-point units busy through a chain's latency, and eight
// accumulators, the broadcast factor entry and the products about fill
// the sixteen floating-point registers of the targets this runs on.
const SolveTile = 8

var errSingularLower = errors.New("la: singular lower-triangular matrix")

// SolveLowerTile solves L·X = B in place for SolveTile right-hand sides
// stored interleaved — b[i*SolveTile+c] is row i of column c — the
// layout that lets one pass over a row of L feed eight independent
// subtraction chains held in registers. Each column performs exactly
// SolveLowerInto's operations in SolveLowerInto's order, so column c of
// the result is bitwise identical to SolveLowerInto on that column: the
// property that lets batched surrogate prediction replace per-point
// solves without changing an output bit. It panics on dimension
// mismatch; on a zero diagonal entry at row i it returns an error with
// rows before i solved and rows from i on untouched.
func SolveLowerTile(l *Matrix, b []float64) error {
	n := l.rows
	if l.cols != n || len(b) != n*SolveTile {
		panic("la: SolveLowerTile dimension mismatch")
	}
	for i := 0; i < n; i++ {
		ri := l.data[i*n : i*n+i+1]
		bi := (*[SolveTile]float64)(b[i*SolveTile:])
		s0, s1, s2, s3, s4, s5, s6, s7 := bi[0], bi[1], bi[2], bi[3], bi[4], bi[5], bi[6], bi[7]
		for j, v := range ri[:i] {
			x := (*[SolveTile]float64)(b[j*SolveTile:])
			s0 -= v * x[0]
			s1 -= v * x[1]
			s2 -= v * x[2]
			s3 -= v * x[3]
			s4 -= v * x[4]
			s5 -= v * x[5]
			s6 -= v * x[6]
			s7 -= v * x[7]
		}
		d := ri[i]
		if d == 0 {
			return errSingularLower
		}
		bi[0], bi[1], bi[2], bi[3] = s0/d, s1/d, s2/d, s3/d
		bi[4], bi[5], bi[6], bi[7] = s4/d, s5/d, s6/d, s7/d
	}
	return nil
}

// SolveUpper solves U·x = b for x where U is upper triangular
// (backward substitution). It panics on dimension mismatch and returns an
// error if a diagonal entry is zero.
func SolveUpper(u *Matrix, b []float64) ([]float64, error) {
	n := u.rows
	if u.cols != n || len(b) != n {
		panic("la: SolveUpper dimension mismatch")
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= u.At(i, j) * x[j]
		}
		d := u.At(i, i)
		if d == 0 {
			return nil, errors.New("la: singular upper-triangular matrix")
		}
		x[i] = s / d
	}
	return x, nil
}

// CholSolve solves (L·Lᵀ)·x = b given the lower Cholesky factor L.
func CholSolve(l *Matrix, b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := CholSolveInto(l, b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// CholSolveInto is CholSolve into the caller-provided x, which also
// serves as the intermediate: the forward solve lands in x and the
// backward solve runs over it in place (row i reads its own forward
// value and the already final rows below it), so a refit loop needs no
// temporaries. The operation order is CholSolve's. x must not alias b.
func CholSolveInto(l *Matrix, b, x []float64) error {
	if err := SolveLowerInto(l, b, x); err != nil {
		return err
	}
	n := l.rows
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= l.data[j*n+i] * x[j]
		}
		d := l.data[i*n+i]
		if d == 0 {
			return errors.New("la: singular triangular matrix")
		}
		x[i] = s / d
	}
	return nil
}

// Dot returns the inner product of two equal-length vectors.
// It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("la: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AddDiagonal adds v to every diagonal entry of the square matrix m,
// in place. It panics if m is not square.
func AddDiagonal(m *Matrix, v float64) {
	if m.rows != m.cols {
		panic("la: AddDiagonal of non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		m.Add(i, i, v)
	}
}
