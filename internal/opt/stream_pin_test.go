package opt

import (
	"context"
	"hash/fnv"
	"math"
	"testing"

	"simcal/internal/core"
)

// historyHash folds math.Float64bits of every history unit coordinate
// and loss, in history order, into one FNV-1a value: any change to the
// RNG draw order, the candidate pool, the training subsample or a
// surrogate's arithmetic moves it.
func historyHash(res *core.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, s := range res.History {
		for _, v := range s.Unit {
			put(v)
		}
		put(s.Loss)
	}
	return h.Sum64()
}

// pinReplay is a fixed, valid async completion order for `total`
// submissions at in-flight width `width`: at step k the in-flight
// submission at position (7k+1) mod len is consumed and the next
// sequence number takes a slot at the back, as the driver refills.
func pinReplay(total, width int) []int {
	var inflight, order []int
	next := 0
	for len(inflight) < width && next < total {
		inflight = append(inflight, next)
		next++
	}
	for k := 0; len(inflight) > 0; k++ {
		i := (7*k + 1) % len(inflight)
		order = append(order, inflight[i])
		inflight = append(inflight[:i], inflight[i+1:]...)
		if next < total {
			inflight = append(inflight, next)
			next++
		}
	}
	return order
}

// holed is sphere3 with an infeasible slab, so the +Inf penalty path of
// trainingSet is on the pinned stream too.
func holed(ctx context.Context, p core.Point) (float64, error) {
	if p["x"] > 2 && p["y"] < 0 {
		return math.Inf(1), nil
	}
	return sphere3(ctx, p)
}

// TestHistoryStreamPinned pins the search trajectory of every BO
// configuration bench/golden.json does not run. The constants were
// recorded at the commit before the candidate pool, the training-set
// scratch and the tiled acquisition solve were introduced; they must
// never be edited by a change that claims to keep the RNG stream and
// the surrogate's bits.
func TestHistoryStreamPinned(t *testing.T) {
	const evals = 72
	// MaxFitPoints 40 < evals, so every run crosses from the whole-history
	// training set into the best-half + evenly-spaced subsample.
	bo := func(b *BayesOpt, mut func(*BayesOpt)) core.Algorithm {
		b.MaxFitPoints = 40
		if mut != nil {
			mut(b)
		}
		return b
	}
	async := NewAsyncBO()
	async.MaxFitPoints = 40
	async.Replay = pinReplay(evals, 4)
	cases := []struct {
		name string
		alg  core.Algorithm
		sim  core.Evaluator
		want uint64
	}{
		{"BO-RF", bo(NewBORF(), nil), sphere3, 0x14baf72c169994fd},
		{"BO-ET", bo(NewBOET(), nil), sphere3, 0x7bcba08ea56d501e},
		{"BO-GBRT", bo(NewBOGBRT(), nil), sphere3, 0xcd69408e424d1a59},
		{"BO-GP/EI", bo(NewBOGP(), nil), holed, 0xabbd5651146dd86e},
		{"BO-GP/LCB", bo(NewBOGP(), func(b *BayesOpt) { b.Acq = LCB }), sphere3, 0x4df1bc126e17403b},
		{"BO-GP/batch1", bo(NewBOGP(), func(b *BayesOpt) { b.Batch = 1 }), sphere3, 0xbb536999e50b933d},
		{"BO-GP/batch2", bo(NewBOGP(), func(b *BayesOpt) { b.Batch = 2 }), sphere3, 0xaa9ee069e9554694},
		{"async-bo/replay", async, sphere3, 0x06d85eacd4afa65a},
	}
	for i, tc := range cases {
		c := &core.Calibrator{
			Space:          optSpace3,
			Simulator:      tc.sim,
			Algorithm:      tc.alg,
			MaxEvaluations: evals,
			Workers:        4,
			Seed:           int64(211 + i),
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.History) != evals {
			t.Fatalf("%s: %d history rows, want %d", tc.name, len(res.History), evals)
		}
		if got := historyHash(res); got != tc.want {
			t.Errorf("%s: history hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
