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
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
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

// tileOf interleaves SolveTile columns of length n drawn from rng.
func tileOf(n int, rng *rand.Rand) (tile []float64, cols [SolveTile][]float64) {
	tile = make([]float64, n*SolveTile)
	for c := range cols {
		cols[c] = make([]float64, n)
		for i := range cols[c] {
			cols[c][i] = rng.NormFloat64()
			tile[i*SolveTile+c] = cols[c][i]
		}
	}
	return tile, cols
}

// TestSolveLowerTileMatchesSolveLowerIntoBitwise: every column of the
// register-blocked solve carries SolveLowerInto's bits, at sizes on
// both sides of the factorization's block width.
func TestSolveLowerTileMatchesSolveLowerIntoBitwise(t *testing.T) {
	for _, n := range []int{1, 7, 64, 401} {
		l, err := Cholesky(spdMatrix(n, int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		tile, cols := tileOf(n, rand.New(rand.NewSource(4)))
		if err := SolveLowerTile(l, tile); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for c := range cols {
			if err := SolveLowerInto(l, cols[c], want); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got := tile[i*SolveTile+c]; math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d col %d row %d: %v != %v", n, c, i, got, want[i])
				}
			}
		}
	}
}

// TestSolveLowerTileSingular: a zero diagonal at row z is an error, and
// the partial state is SolveLowerInto's — rows before z solved, rows
// from z on as the caller left them.
func TestSolveLowerTileSingular(t *testing.T) {
	const n, z = 7, 4
	l, err := Cholesky(spdMatrix(n, 5))
	if err != nil {
		t.Fatal(err)
	}
	l.Set(z, z, 0)
	tile, cols := tileOf(n, rand.New(rand.NewSource(6)))
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
			if got := tile[i*SolveTile+c]; math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("col %d row %d after error: %v != %v", c, i, got, want[i])
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

// TestReshapeReusesBackingArray: growing allocates geometrically, and
// shrinking or re-growing within capacity does not allocate.
func TestReshapeReusesBackingArray(t *testing.T) {
	var m Matrix
	if !m.Reshape(3, 3) {
		t.Fatal("Reshape of the zero Matrix did not allocate")
	}
	m.RawRow(2)[2] = 7
	if m.Reshape(4, 4) || m.Reshape(2, 5) || m.Reshape(3, 6) {
		t.Error("Reshape within twice the first size allocated")
	}
	if m.Rows() != 3 || m.Cols() != 6 || len(m.RawRow(2)) != 6 {
		t.Errorf("Reshape(3,6) left a %dx%d matrix", m.Rows(), m.Cols())
	}
	if !m.Reshape(5, 5) {
		t.Error("Reshape beyond capacity did not allocate")
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
