package surrogate

import (
	"testing"

	"simcal/internal/stats"
)

// benchTrainingSet builds an n×d unit-cube design with a smooth target,
// mirroring the shape of BO's trainingSet output.
func benchTrainingSet(n, d int, seed int64) ([][]float64, []float64) {
	rng := stats.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = quadratic(row)
	}
	return X, y
}

// BenchmarkGPFit400 measures one full GP refit at the MaxFitPoints
// steady state (n=400, d=10) over the default 4-scale length-scale grid
// — the hot path of every BO-GP iteration.
func BenchmarkGPFit400(b *testing.B) {
	X, y := benchTrainingSet(400, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGP()
		if err := g.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPRefit400Warm measures the incremental refit: one GP
// instance alternates between the 396- and 400-row prefixes of the same
// design, so each Fit extends a cached factorization by 4 rows per
// scale instead of refactoring 400. That is the best case, not BO-GP's
// steady state at the MaxFitPoints cap: there trainingSet's subsample
// reorders rows, and a fit at n = 400 reuses a prefix of a few rows
// (DESIGN §6), so BenchmarkGPFit400 is the closer measure of it.
func BenchmarkGPRefit400Warm(b *testing.B) {
	X, y := benchTrainingSet(400, 10, 1)
	g := NewGP()
	if err := g.Fit(X[:396], y[:396]); err != nil {
		b.Fatal(err)
	}
	if err := g.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 396 + 4*(i%2)
		if err := g.Fit(X[:n], y[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPPredict512Serial measures scoring a 512-candidate
// acquisition pool with one Predict call per candidate (the seed
// proposeByEI loop).
func BenchmarkGPPredict512Serial(b *testing.B) {
	X, y := benchTrainingSet(400, 10, 1)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	cands, _ := benchTrainingSet(512, 10, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			g.Predict(c)
		}
	}
}

// BenchmarkGPPredictBatch512 measures the same 512-candidate pool
// through PredictBatch (chunked multi-RHS solves, worker pool), on a GP
// that has scored a pool before, as BO's does from its second
// iteration on.
func BenchmarkGPPredictBatch512(b *testing.B) {
	X, y := benchTrainingSet(400, 10, 1)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	cands, _ := benchTrainingSet(512, 10, 2)
	mean := make([]float64, len(cands))
	std := make([]float64, len(cands))
	PredictBatch(g, cands, mean, std)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PredictBatch(g, cands, mean, std)
	}
}
