package la

import (
	"math/rand"
	"testing"
)

func benchSPD(n int, seed int64) *Matrix {
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

func BenchmarkCholesky400(b *testing.B) {
	a := benchSPD(400, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyInPlace400(b *testing.B) {
	a := benchSPD(400, 1)
	buf := NewMatrix(400, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf.data, a.data)
		if err := CholeskyInPlace(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholeskyExtend400 measures appending 4 rows to an
// already-factored 396-row block — the per-iteration cost of the GP's
// incremental refit at BO's default batch size.
func BenchmarkCholeskyExtend400(b *testing.B) {
	const n, start = 400, 396
	a := benchSPD(n, 1)
	warm := a.Clone()
	if err := CholeskyExtendInPlace(warm, 0); err != nil {
		b.Fatal(err)
	}
	buf := NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < start; r++ {
			copy(buf.RawRow(r)[:r+1], warm.RawRow(r)[:r+1])
		}
		for r := start; r < n; r++ {
			copy(buf.RawRow(r)[:r+1], a.RawRow(r)[:r+1])
		}
		if err := CholeskyExtendInPlace(buf, start); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveLowerTile400x512 measures the acquisition's solve: 512
// right-hand sides against a 400-row factor, in one call over all their
// tiles.
func BenchmarkSolveLowerTile400x512(b *testing.B) {
	a := benchSPD(400, 1)
	l, err := Cholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rhs := make([]float64, 400*512)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	buf := make([]float64, len(rhs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, rhs)
		if err := SolveLowerTile(l, buf); err != nil {
			b.Fatal(err)
		}
	}
}
