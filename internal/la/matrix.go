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
// operation order, no data-dependent reductions. Exp, the GP's batched
// exponential, is bitwise math.Exp. The inner loops are Go (kernels.go)
// on every GOARCH, except that when math.Exp itself runs its AVX+FMA
// path on amd64, Exp runs that path four lanes at a time, the tiled
// solve updates two tiles per pass in 256-bit registers, and the
// factorization's row solve and trailing update run as whole AVX
// kernels over several rows at once, all still in the Go loops' order,
// so their results are bitwise the loops'.
package la

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values. Row i starts
// at data[i*stride]; stride is at least cols, and more when the matrix
// was grown by Resize, which leaves room for its rows to lengthen in
// place.
type Matrix struct {
	rows, cols, stride int
	data               []float64
}

// NewMatrix returns a zero-initialized rows×cols matrix.
// It panics if either dimension is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("la: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, stride: cols, data: make([]float64, rows*cols)}
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
		copy(m.RawRow(i), r)
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
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.stride+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.stride+j] = v }

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.stride+j] += v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	return append([]float64(nil), m.RawRow(i)...)
}

// RawRow returns row i as a live view into the matrix storage: writes
// through the returned slice mutate the matrix. It exists for hot loops
// (kernel fills, batched solves) that cannot afford per-element At/Set.
func (m *Matrix) RawRow(i int) []float64 {
	return m.data[i*m.stride : i*m.stride+m.cols]
}

// Clone returns a deep copy of the matrix, its rows cols apart.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		copy(c.RawRow(i), m.RawRow(i))
	}
	return c
}

// Resize makes m a rows×cols matrix whose leading min(rows, Rows()) ×
// min(cols, Cols()) block holds the entries it held before; every
// other entry is unspecified. While the rows fit in the backing array
// at its row stride, nothing moves. Otherwise Resize lays the kept
// block out again in a new array, with the stride and the row count it
// has room for each a quarter above the need, and reports that it grew:
// a square matrix grown one row at a time re-lays O(log n) times, and
// its array never holds more than about 1.6·n² values. The zero Matrix
// is a valid receiver. It is how a matrix that gains and loses trailing
// rows from one use to the next, such as a kernel matrix refit on
// appended rows, keeps its leading rows where they are.
func (m *Matrix) Resize(rows, cols int) (grew bool) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("la: invalid matrix dimensions %dx%d", rows, cols))
	}
	if grew = cols > m.stride || rows*m.stride > cap(m.data); grew {
		stride := cols + cols/4
		data := make([]float64, (rows+rows/4)*stride)
		keep := min(cols, m.cols)
		for i := 0; i < min(rows, m.rows); i++ {
			copy(data[i*stride:i*stride+keep], m.RawRow(i))
		}
		m.stride, m.data = stride, data
	}
	m.rows, m.cols, m.data = rows, cols, m.data[:rows*m.stride]
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
		oi := out.RawRow(i)
		for k, mv := range m.RawRow(i) {
			if mv == 0 {
				continue
			}
			for j, bv := range b.RawRow(k) {
				oi[j] += float64(mv * bv)
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
		for j, v := range m.RawRow(i) {
			s += float64(v * x[j])
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

// solveGroup is the number of rows of the diagonal block that go
// through one row solve together (solveRows).
const solveGroup = 4

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
	for i := 0; i < l.rows-1; i++ {
		clear(l.RawRow(i)[i+1:])
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
	n, s := a.rows, a.stride
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
	// only read (they hold the previously computed factor). Each entry
	// is computed from finished entries by one fixed operation sequence,
	// so the order in which rows and columns are visited (groups of rows
	// at once, pairs of columns) cannot change a bit.
	for k0 := 0; k0 < n; k0 += cholBlock {
		k1 := min(k0+cholBlock, n)
		// Row j of the diagonal block starts at l[(j-k0)*s].
		l := a.data[k0*s+k0:]
		// (1) Diagonal block: rows [max(k0,start), k1), solveGroup rows
		// at a time. The columns left of a group's first row are a row
		// solve against finished rows; then each row of the group
		// finishes its own columns in order and takes its square root.
		for i := max(k0, start); i < k1; i += solveGroup {
			g := min(solveGroup, k1-i)
			solveRows(a.data[i*s+k0:], l, s, g, i-k0)
			for r := i; r < i+g; r++ {
				rr := a.data[r*s : r*s+n]
				for j := i; j < r; j++ {
					rj := a.data[j*s : j*s+n]
					rr[j] = (rr[j] - dotf(rr[k0:j], rj[k0:j])) / rj[j]
				}
				d := rr[r] - dotf(rr[k0:r], rr[k0:r])
				if d <= 0 || math.IsNaN(d) {
					return ErrNotPositiveDefinite
				}
				rr[r] = math.Sqrt(d)
			}
		}
		p0 := max(k1, start)
		if p0 == n {
			continue
		}
		// (2) Panel solve: rows [p0, n), columns [k0,k1).
		solveRows(a.data[p0*s+k0:], l, s, n-p0, k1-k0)
		// (3) Trailing update: subtract this block's contribution from
		// the not-yet-factored lower triangle of rows [p0, n). p0 < n
		// implies k1 < n, so the block is a full cholBlock columns wide.
		trail(a.data[p0*s+k0:], a.data[k1*s+k0:], s, n-p0, p0-k1)
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
// paths (a refit's solve, the scalar prediction) reuse one buffer across
// many solves. Row i is one subtraction chain, s = b[i] - L[i][j]·x[j]
// for j in ascending order, then x[i] = s/L[i][i]. Rows go through
// solveGroup at a time: the group's chains advance together over the
// columns left of its first row, each in its own register, and then
// each row finishes its part of the group's triangle in turn. Every row
// keeps its own operations in their order, so the result does not
// depend on the grouping. On a zero diagonal entry at row i it returns
// an error with rows before i solved. x must not alias b.
func SolveLowerInto(l *Matrix, b, x []float64) error {
	n, st := l.rows, l.stride
	if l.cols != n || len(b) != n || len(x) != n {
		panic("la: SolveLowerInto dimension mismatch")
	}
	var s [solveGroup]float64
	for i := 0; i < n; i += solveGroup {
		g := min(solveGroup, n-i)
		if g == solveGroup {
			r0, r1, r2, r3 := l.data[i*st:i*st+i], l.data[(i+1)*st:(i+1)*st+i], l.data[(i+2)*st:(i+2)*st+i], l.data[(i+3)*st:(i+3)*st+i]
			s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
			for j, v := range x[:i] {
				s0 -= float64(r0[j] * v)
				s1 -= float64(r1[j] * v)
				s2 -= float64(r2[j] * v)
				s3 -= float64(r3[j] * v)
			}
			s = [solveGroup]float64{s0, s1, s2, s3}
		} else {
			for r := range g {
				s[r] = b[i+r]
				for j, v := range x[:i] {
					s[r] -= float64(l.data[(i+r)*st+j] * v)
				}
			}
		}
		for r := range g {
			ri := l.data[(i+r)*st : (i+r)*st+i+r+1]
			for j := i; j < i+r; j++ {
				s[r] -= float64(ri[j] * x[j])
			}
			if ri[i+r] == 0 {
				return errSingularLower
			}
			x[i+r] = s[r] / ri[i+r]
		}
	}
	return nil
}

// SolveTile is the number of right-hand sides in one tile of
// SolveLowerTile. Eight subtraction chains keep the floating-point units
// busy through a chain's latency. The Go loop holds them in scalar
// registers; the AVX kernel, two tiles at a time, in four 256-bit
// registers.
const SolveTile = 8

var errSingularLower = errors.New("la: singular lower-triangular matrix")

// SolveLowerTile solves L·X = B in place for any whole number of tiles
// of SolveTile right-hand sides. b holds the tiles one after another,
// n·SolveTile values each, and within a tile the columns interleaved —
// b[t*n*SolveTile+i*SolveTile+c] is row i of column c of tile t — the
// layout that lets one pass over a row of L feed eight independent
// subtraction chains per tile held in registers; tiles go through two
// at a time. Each column performs exactly SolveLowerInto's operations in
// SolveLowerInto's order, so every column of the result is bitwise
// identical to SolveLowerInto on that column: the property that lets
// batched surrogate prediction replace per-point solves without changing
// an output bit. It panics on dimension mismatch; on a zero diagonal
// entry at row i it returns an error with, in every tile, rows before i
// solved and rows from i on untouched.
func SolveLowerTile(l *Matrix, b []float64) error {
	n, st := l.rows, l.stride
	span := n * SolveTile
	if l.cols != n || n == 0 || len(b)%span != 0 {
		panic("la: SolveLowerTile dimension mismatch")
	}
	// Checked before any tile's row is updated in place, so the rows
	// from the first zero on stay as the caller left them.
	m := n
	for i := 0; i < n; i++ {
		if l.data[i*st+i] == 0 {
			m = i
			break
		}
	}
	for t := 0; t < len(b); t += 2 * span {
		x0 := b[t : t+span]
		if t+span == len(b) {
			for i := 0; i < m; i++ {
				s := (*[SolveTile]float64)(x0[i*SolveTile:])
				tileRow(l.data[i*st:i*st+i], x0[:i*SolveTile], s)
				d := l.data[i*st+i]
				for c := range s {
					s[c] /= d
				}
			}
			break
		}
		x1 := b[t+span : t+2*span]
		for i := 0; i < m; i++ {
			s0 := (*[SolveTile]float64)(x0[i*SolveTile:])
			s1 := (*[SolveTile]float64)(x1[i*SolveTile:])
			tileRow2(l.data[i*st:i*st+i], x0[:i*SolveTile], x1[:i*SolveTile], s0, s1)
			d := l.data[i*st+i]
			for c := range s0 {
				s0[c] /= d
				s1[c] /= d
			}
		}
	}
	if m < n {
		return errSingularLower
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
			s -= float64(u.At(i, j) * x[j])
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
	n, st := l.rows, l.stride
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= float64(l.data[j*st+i] * x[j])
		}
		d := l.data[i*st+i]
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
		s += float64(v * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x * x)
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
