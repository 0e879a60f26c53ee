package core_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"simcal/internal/core"
	"simcal/internal/opt"
)

// TestJournalResultEqualsLive: the Result a journal rebuilds
// (JournalRun.Result) is the one its run returned, bit for bit, Elapsed
// aside — for a batch run and an async-bo run whose histories hold +Inf
// losses and a tie at the best loss, so Best has to be chosen by the
// run's own rule: the first sample at the lowest loss.
func TestJournalResultEqualsLive(t *testing.T) {
	space := core.Space{
		{Name: "x", Kind: core.Continuous, Min: 0, Max: 1},
		{Name: "y", Kind: core.Exponential, Min: -4, Max: 4},
	}
	// Coarse losses tie; the top of the y range fails, which the run
	// records as +Inf.
	sim := core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
		if p["y"] > 4 {
			return 0, errors.New("out of the envelope")
		}
		return math.Floor(p["x"] * 3), nil
	})
	for _, name := range []string{"RAND", "async-bo"} {
		t.Run(name, func(t *testing.T) {
			alg, err := opt.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "ck.jsonl")
			cal := &core.Calibrator{
				Space: space, Simulator: sim, Algorithm: alg,
				MaxEvaluations: 30, Workers: 3, Seed: 4, Checkpoint: path,
			}
			live, err := cal.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			failed, ties := 0, 0
			for _, s := range live.History {
				if math.IsInf(s.Loss, 1) {
					failed++
				}
				if s.Loss == live.Best.Loss {
					ties++
				}
			}
			if failed == 0 || ties < 2 {
				t.Fatalf("%d failed evaluations and %d at the best loss: the test needs some of each", failed, ties)
			}

			jr, err := core.ReadJournal(path, cal)
			if err != nil {
				t.Fatal(err)
			}
			got, err := jr.Result(space)
			if err != nil {
				t.Fatal(err)
			}
			got.Elapsed = live.Elapsed
			var a, b bytes.Buffer
			if err := got.WriteJSON(&a, true); err != nil {
				t.Fatal(err)
			}
			if err := live.WriteJSON(&b, true); err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Errorf("the journal's result differs from the live one:\n got %.300s\nwant %.300s", a.String(), b.String())
			}
			if !slices.Equal(unitBits(got), unitBits(live)) {
				t.Error("the journal's result holds other unit vectors than the live one")
			}
			if _, err := jr.Result(space[:1]); err == nil {
				t.Error("a result decoded through another space was accepted")
			}
		})
	}
}

// unitBits is every unit coordinate of a result, best first, as bits.
func unitBits(r *core.Result) (bits []uint64) {
	for _, s := range append([]core.Sample{r.Best}, r.History...) {
		for _, u := range s.Unit {
			bits = append(bits, math.Float64bits(u))
		}
	}
	return bits
}
