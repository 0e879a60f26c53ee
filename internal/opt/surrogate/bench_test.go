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

// BenchmarkGPRefitAppend measures async-bo's refit: 300 history rows,
// then one newly finished row and one fantasy row, over the default
// 4-scale grid. Fits alternate between two such pairs, so each one
// extends every scale's factor from row 300 by two rows, in place.
func BenchmarkGPRefitAppend(b *testing.B) {
	X, y := benchTrainingSet(304, 7, 1)
	sets := [2][][]float64{X[:302], append(X[:300:300], X[302:]...)}
	g := NewGP()
	for _, s := range sets {
		if err := g.Fit(s, y[:302]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Fit(sets[i%2], y[:302]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPPredictMean512 measures the mean pass alone over a
// 512-candidate pool at n = 400: the kernel fill, the Matérn finish
// with its mean sums and largest kernel values, and the bounds.
func BenchmarkGPPredictMean512(b *testing.B) {
	X, y := benchTrainingSet(400, 10, 1)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	cands, _ := benchTrainingSet(512, 10, 2)
	mean := make([]float64, len(cands))
	std := make([]float64, len(cands))
	g.PredictMean(cands, mean, std)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictMean(cands, mean, std)
	}
}
