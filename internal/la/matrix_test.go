package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewMatrixZeroInitialized(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3 matrix")
		}
	}()
	NewMatrix(0, 3)
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set failed: At(0,0) = %v, want 9", m.At(0, 0))
	}
	m.Add(0, 0, 1)
	if m.At(0, 0) != 10 {
		t.Errorf("Add failed: At(0,0) = %v, want 10", m.At(0, 0))
	}
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Errorf("Row(1) = %v, want [3 4]", r)
	}
	// Row must be a copy.
	r[0] = 99
	if m.At(1, 0) != 3 {
		t.Error("Row returned a view, want a copy")
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	p := a.Mul(Identity(3))
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if p.At(i, j) != a.At(i, j) {
				t.Fatalf("A·I != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnownProduct(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	p := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if p.At(i, j) != want[i][j] {
				t.Errorf("p(%d,%d) = %v, want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("MulVec = %v, want [-2 -2]", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := a.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T dims = %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("transpose values wrong: %v %v", tr.At(2, 1), tr.At(0, 1))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestCholeskyKnownFactor(t *testing.T) {
	// A = L·Lᵀ with L = [[2,0],[1,3]] → A = [[4,2],[2,10]].
	a := FromRows([][]float64{{4, 2}, {2, 10}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	if !almostEqual(l.At(0, 0), 2, 1e-12) || !almostEqual(l.At(1, 0), 1, 1e-12) || !almostEqual(l.At(1, 1), 3, 1e-12) {
		t.Errorf("L = [[%v,%v],[%v,%v]], want [[2,0],[1,3]]", l.At(0, 0), l.At(0, 1), l.At(1, 0), l.At(1, 1))
	}
	if l.At(0, 1) != 0 {
		t.Error("L not lower triangular")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSolveLowerUpper(t *testing.T) {
	l := FromRows([][]float64{{2, 0}, {1, 3}})
	x, err := SolveLower(l, []float64{4, 11})
	if err != nil {
		t.Fatalf("SolveLower: %v", err)
	}
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("SolveLower x = %v, want [2 3]", x)
	}
	u := FromRows([][]float64{{2, 1}, {0, 3}})
	x, err = SolveUpper(u, []float64{7, 9})
	if err != nil {
		t.Fatalf("SolveUpper: %v", err)
	}
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("SolveUpper x = %v, want [2 3]", x)
	}
}

func TestSolveSingularReturnsError(t *testing.T) {
	l := FromRows([][]float64{{0, 0}, {1, 3}})
	if _, err := SolveLower(l, []float64{1, 2}); err == nil {
		t.Error("SolveLower: expected singular error")
	}
	u := FromRows([][]float64{{2, 1}, {0, 0}})
	if _, err := SolveUpper(u, []float64{1, 2}); err == nil {
		t.Error("SolveUpper: expected singular error")
	}
}

func TestCholSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		// Build SPD matrix A = BᵀB + n·I.
		b := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		a := b.T().Mul(b)
		AddDiagonal(a, float64(n))
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rhs := a.MulVec(xTrue)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("trial %d: Cholesky: %v", trial, err)
		}
		x, err := CholSolve(l, rhs)
		if err != nil {
			t.Fatalf("trial %d: CholSolve: %v", trial, err)
		}
		for i := range x {
			if !almostEqual(x[i], xTrue[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Error("Norm2 wrong")
	}
}

// Property: (AᵀA + I) is always SPD, so Cholesky must succeed and the
// reconstruction L·Lᵀ must equal the input.
func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		b := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		a := b.T().Mul(b)
		AddDiagonal(a, 1)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		rec := l.Mul(l.T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(rec.At(i, j), a.At(i, j), 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// spdMatrix builds a random SPD matrix A = BᵀB + n·I.
func spdMatrix(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := b.T().Mul(b)
	AddDiagonal(a, float64(n))
	return a
}

func TestCholeskyInPlaceMatchesCholesky(t *testing.T) {
	for _, n := range []int{1, 2, 7, 63, 64, 65, 130} {
		a := spdMatrix(n, int64(n))
		want, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: Cholesky: %v", n, err)
		}
		got := a.Clone()
		if err := CholeskyInPlace(got); err != nil {
			t.Fatalf("n=%d: CholeskyInPlace: %v", n, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("n=%d: in-place factor differs at (%d,%d): %v vs %v", n, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// The extension contract: factoring the leading block first and then
// extending must give the same bits as factoring the full matrix at
// once. The GP's incremental refit (and its checkpoint-replay
// determinism) rests on this.
func TestCholeskyExtendMatchesFullBitwise(t *testing.T) {
	for _, tc := range []struct{ n, start int }{
		{10, 4}, {50, 30}, {130, 64}, {130, 65}, {130, 100}, {40, 0}, {40, 40},
	} {
		a := spdMatrix(tc.n, int64(tc.n+tc.start))
		full := a.Clone()
		if err := CholeskyInPlace(full); err != nil {
			t.Fatalf("n=%d: full: %v", tc.n, err)
		}
		// Factor the leading start×start block separately.
		lead := NewMatrix(max(tc.start, 1), max(tc.start, 1))
		for i := 0; i < tc.start; i++ {
			copy(lead.RawRow(i)[:i+1], a.RawRow(i)[:i+1])
		}
		if tc.start > 0 {
			if err := CholeskyExtendInPlace(lead, 0); err != nil {
				t.Fatalf("n=%d start=%d: leading block: %v", tc.n, tc.start, err)
			}
		}
		// Assemble the extension input: factored rows, then raw rows.
		ext := a.Clone()
		for i := 0; i < tc.start; i++ {
			copy(ext.RawRow(i)[:i+1], lead.RawRow(i)[:i+1])
		}
		if err := CholeskyExtendInPlace(ext, tc.start); err != nil {
			t.Fatalf("n=%d start=%d: extend: %v", tc.n, tc.start, err)
		}
		for i := 0; i < tc.n; i++ {
			for j := 0; j <= i; j++ {
				if ext.At(i, j) != full.At(i, j) {
					t.Fatalf("n=%d start=%d: extension differs at (%d,%d): %v vs %v",
						tc.n, tc.start, i, j, ext.At(i, j), full.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyExtendRejectsBadStart(t *testing.T) {
	a := spdMatrix(4, 1)
	if err := CholeskyExtendInPlace(a, -1); err == nil {
		t.Error("negative start accepted")
	}
	if err := CholeskyExtendInPlace(a, 5); err == nil {
		t.Error("start beyond n accepted")
	}
}

// tileOf lays out k tiles of SolveTile interleaved columns of length n
// drawn from rng, as SolveLowerTile takes them; column c is column
// c%SolveTile of tile c/SolveTile.
func tileOf(n, k int, rng *rand.Rand) (tile []float64, cols [][]float64) {
	tile = make([]float64, k*n*SolveTile)
	cols = make([][]float64, k*SolveTile)
	for c := range cols {
		cols[c] = make([]float64, n)
		for i := range cols[c] {
			cols[c][i] = rng.NormFloat64()
			tile[tileAt(n, i, c)] = cols[c][i]
		}
	}
	return tile, cols
}

// tileAt is the index of row i of column c in tileOf's layout.
func tileAt(n, i, c int) int {
	return c/SolveTile*n*SolveTile + i*SolveTile + c%SolveTile
}

// TestSolveLowerTileMatchesSolveLowerIntoBitwise: every column of the
// register-blocked solve carries SolveLowerInto's bits, at sizes on
// both sides of the factorization's block width, for one to five tiles
// per call — pairs and a last odd tile.
func TestSolveLowerTileMatchesSolveLowerIntoBitwise(t *testing.T) {
	for _, n := range []int{1, 7, 64, 401} {
		l, err := Cholesky(spdMatrix(n, int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 5; k++ {
			tile, cols := tileOf(n, k, rand.New(rand.NewSource(int64(4+k))))
			if err := SolveLowerTile(l, tile); err != nil {
				t.Fatal(err)
			}
			want := make([]float64, n)
			for c := range cols {
				if err := SolveLowerInto(l, cols[c], want); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got := tile[tileAt(n, i, c)]; math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d k=%d col %d row %d: %v != %v", n, k, c, i, got, want[i])
					}
				}
			}
		}
	}
}

// TestSolveLowerTileSingular: a zero diagonal at row z is an error, and
// the partial state of every tile is SolveLowerInto's — rows before z
// solved, rows from z on as the caller left them.
func TestSolveLowerTileSingular(t *testing.T) {
	const n, z = 7, 4
	l, err := Cholesky(spdMatrix(n, 5))
	if err != nil {
		t.Fatal(err)
	}
	l.Set(z, z, 0)
	for k := 1; k <= 5; k++ {
		tile, cols := tileOf(n, k, rand.New(rand.NewSource(6)))
		if err := SolveLowerTile(l, tile); err == nil {
			t.Fatal("SolveLowerTile accepted singular L")
		}
		for c := range cols {
			want := make([]float64, n)
			copy(want[z:], cols[c][z:])
			if err := SolveLowerInto(l, cols[c], want); err == nil {
				t.Fatal("SolveLowerInto accepted singular L")
			}
			for i := range want {
				if got := tile[tileAt(n, i, c)]; math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("k=%d col %d row %d after error: %v != %v", k, c, i, got, want[i])
				}
			}
		}
	}
}

// TestCholSolveIntoMatchesTwoStepBitwise: the in-place backward pass
// carries the bits of a forward solve followed by a solve against the
// materialized transpose.
func TestCholSolveIntoMatchesTwoStepBitwise(t *testing.T) {
	const n = 37
	l, err := Cholesky(spdMatrix(n, 3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	y, err := SolveLower(l, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveUpper(l.T(), y)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	if err := CholSolveInto(l, b, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: %v != %v", i, got[i], want[i])
		}
	}
	if err := CholSolveInto(FromRows([][]float64{{1, 0}, {2, 0}}), []float64{1, 1}, make([]float64, 2)); err == nil {
		t.Error("CholSolveInto accepted singular L")
	}
}

// TestResizeKeepsLeadingBlock: Resize keeps the entries of the leading
// block where they are while the rows fit at the row stride, and lays
// them out again, at a wider stride, when they do not; growing
// allocates geometrically, and shrinking or re-growing within capacity
// does not allocate.
func TestResizeKeepsLeadingBlock(t *testing.T) {
	var m Matrix
	if !m.Resize(8, 8) {
		t.Fatal("Resize of the zero Matrix did not allocate")
	}
	fill := func(rows, cols int) {
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, float64(100*i+j))
			}
		}
	}
	check := func(rows, cols int) {
		t.Helper()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if m.At(i, j) != float64(100*i+j) {
					t.Fatalf("after Resize to %dx%d: (%d,%d) = %v, want %d", m.Rows(), m.Cols(), i, j, m.At(i, j), 100*i+j)
				}
			}
		}
	}
	fill(8, 8)
	row0 := &m.RawRow(0)[0]
	for _, sz := range []int{10, 5, 9, 10} {
		if m.Resize(sz, sz) {
			t.Errorf("Resize to %dx%d within capacity allocated", sz, sz)
		}
		check(min(sz, 5), min(sz, 5))
	}
	if &m.RawRow(0)[0] != row0 {
		t.Error("Resize within capacity moved the rows")
	}
	if m.Rows() != 10 || m.Cols() != 10 || len(m.RawRow(9)) != 10 {
		t.Errorf("Resize(10,10) left a %dx%d matrix", m.Rows(), m.Cols())
	}
	fill(10, 10)
	grew := 0
	for n := 11; n <= 400; n++ {
		if m.Resize(n, n) {
			grew++
			check(n-1, n-1)
		}
		if c := cap(m.RawRow(0)); c > 2*n*n {
			t.Fatalf("n=%d: capacity %d above 2n²", n, c)
		}
		fill(n, n)
	}
	if grew == 0 || grew > 20 {
		t.Errorf("growing from 10 to 400 rows one at a time re-laid %d times, want a few", grew)
	}
}

func TestRawRowIsAView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.RawRow(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("RawRow must alias matrix storage")
	}
}

// Property: Dot(x, x) == Norm2(x)².
func TestDotNormProperty(t *testing.T) {
	f := func(v []float64) bool {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true // skip degenerate inputs
			}
		}
		n := Norm2(v)
		return almostEqual(Dot(v, v), n*n, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// solveLowerRef is forward substitution one row at a time, each row one
// subtraction chain in ascending column order: the reference
// SolveLowerInto's grouped rows are held to.
func solveLowerRef(l *Matrix, b, x []float64) error {
	for i := range b {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= float64(l.At(i, j) * x[j])
		}
		d := l.At(i, i)
		if d == 0 {
			return errSingularLower
		}
		x[i] = s / d
	}
	return nil
}

// TestSolveLowerIntoMatchesOneRowReference: at every size from 1 to 70
// — whole groups of rows and every remainder — and with a zero diagonal
// at every position in turn, SolveLowerInto returns the reference's
// error and, before the zero, the reference's rows bit for bit, on a
// compact factor and on one whose rows lie further apart.
func TestSolveLowerIntoMatchesOneRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 70; n++ {
		l := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				l.Set(i, j, rng.NormFloat64())
			}
			l.Set(i, i, 0.5+rng.Float64())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for z := -1; z < n; z++ {
			lz := l.Clone()
			if z >= 0 {
				lz.Set(z, z, 0)
			}
			solved := n
			if z >= 0 {
				solved = z
			}
			want := make([]float64, n)
			wantErr := solveLowerRef(lz, b, want)
			for _, m := range []*Matrix{lz, withStride(lz, n+3)} {
				got := make([]float64, n)
				if err := SolveLowerInto(m, b, got); err != wantErr {
					t.Fatalf("n=%d zero at %d stride %d: error %v, reference %v", n, z, m.stride, err, wantErr)
				}
				for i := range got[:solved] {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d zero at %d stride %d: row %d = %v, reference %v", n, z, m.stride, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// withStride returns a copy of m whose rows lie stride values apart.
func withStride(m *Matrix, stride int) *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, stride: stride, data: make([]float64, m.rows*stride)}
	for i := 0; i < m.rows; i++ {
		copy(c.RawRow(i), m.RawRow(i))
	}
	return c
}

// TestResizedFactorMatchesCompactBitwise: a factor grown the way the
// GP's refits grow it — the leading rows factored, then Resize to more
// rows, which may re-lay them at a wider stride, and an extension over
// the new rows — carries the bits of a compact factorization, and so do
// the solves over it.
func TestResizedFactorMatchesCompactBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ start, n int }{{3, 7}, {40, 41}, {64, 70}, {65, 130}, {100, 129}, {0, 66}} {
		a := spdMatrix(tc.n, int64(tc.n))
		want := a.Clone()
		if err := CholeskyInPlace(want); err != nil {
			t.Fatal(err)
		}
		var got Matrix
		from := 0
		for _, rows := range []int{tc.start, tc.n} {
			if rows == from {
				continue
			}
			got.Resize(rows, rows)
			for i := from; i < rows; i++ {
				copy(got.RawRow(i)[:i+1], a.RawRow(i)[:i+1])
			}
			if err := CholeskyExtendInPlace(&got, from); err != nil {
				t.Fatal(err)
			}
			from = rows
		}
		if got.stride == tc.n {
			t.Fatalf("start=%d n=%d: the factor's rows are not spaced apart", tc.start, tc.n)
		}
		for i := 0; i < tc.n; i++ {
			for j := 0; j <= i; j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("start=%d n=%d: (%d,%d) = %v, compact %v", tc.start, tc.n, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
		b := make([]float64, tc.n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		gx, wx := make([]float64, tc.n), make([]float64, tc.n)
		if CholSolveInto(&got, b, gx) != nil || CholSolveInto(want, b, wx) != nil {
			t.Fatal("CholSolveInto failed")
		}
		tile, _ := tileOf(tc.n, 3, rng)
		wtile := append([]float64(nil), tile...)
		if SolveLowerTile(&got, tile) != nil || SolveLowerTile(want, wtile) != nil {
			t.Fatal("SolveLowerTile failed")
		}
		for i := range gx {
			if math.Float64bits(gx[i]) != math.Float64bits(wx[i]) {
				t.Fatalf("start=%d n=%d: CholSolveInto row %d = %v, compact %v", tc.start, tc.n, i, gx[i], wx[i])
			}
		}
		for i := range tile {
			if math.Float64bits(tile[i]) != math.Float64bits(wtile[i]) {
				t.Fatalf("start=%d n=%d: SolveLowerTile entry %d = %v, compact %v", tc.start, tc.n, i, tile[i], wtile[i])
			}
		}
	}
}
