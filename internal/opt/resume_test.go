package opt

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"simcal/internal/core"
)

// TestResumeBitwiseIdenticalAcrossAlgorithms is the acceptance test for
// checkpoint/resume: for GRID, RAND, and BO-GP, a calibration killed
// after a journaled evaluation and resumed must produce a Result — best,
// history, loss-over-time — bitwise-identical to an uninterrupted run.
// The clock is frozen so elapsed fields are exactly zero in both runs;
// workers=1 pins the simulator-call interleaving (history order itself
// is input-deterministic regardless).
func TestResumeBitwiseIdenticalAcrossAlgorithms(t *testing.T) {
	t0 := time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC)
	frozen := func() time.Time { return t0 }
	const (
		killAt = 16
		total  = 40
		seed   = 42
	)
	algs := []func() core.Algorithm{
		func() core.Algorithm { return Random{Batch: 8} },
		func() core.Algorithm { return Grid{} },
		func() core.Algorithm { return NewBOGP() },
	}
	for _, mk := range algs {
		alg := mk()
		t.Run(alg.Name(), func(t *testing.T) {
			build := func(alg core.Algorithm, evals int) *core.Calibrator {
				return &core.Calibrator{
					Space:          optSpace,
					Simulator:      core.Evaluator(rosenbrockish),
					Algorithm:      alg,
					MaxEvaluations: evals,
					Workers:        1,
					Seed:           seed,
					Clock:          frozen,
				}
			}

			ref, err := build(mk(), total).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			// The "killed" run: budget cut to killAt — the journal on
			// disk is what a kill -9 right after that evaluation leaves
			// behind.
			path := filepath.Join(t.TempDir(), "ck.jsonl")
			killed := build(mk(), killAt)
			killed.Checkpoint = path
			if _, err := killed.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			journal, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(journal, []byte(`{"consume"`)); n != killAt {
				t.Fatalf("journal holds %d evaluations, want %d", n, killAt)
			}

			resumed := build(mk(), total)
			resumed.Checkpoint, resumed.Resume = path, true
			res, err := resumed.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			if res.Evaluations != ref.Evaluations {
				t.Fatalf("Evaluations: %d vs %d", res.Evaluations, ref.Evaluations)
			}
			if res.Best.Loss != ref.Best.Loss {
				t.Fatalf("Best.Loss: %v vs %v (not bitwise)", res.Best.Loss, ref.Best.Loss)
			}
			for k, v := range ref.Best.Point {
				if res.Best.Point[k] != v {
					t.Fatalf("Best.Point[%q]: %v vs %v", k, res.Best.Point[k], v)
				}
			}
			if len(res.History) != len(ref.History) {
				t.Fatalf("history length: %d vs %d", len(res.History), len(ref.History))
			}
			for i := range ref.History {
				a, b := ref.History[i], res.History[i]
				if a.Loss != b.Loss || a.Elapsed != b.Elapsed {
					t.Fatalf("history[%d]: loss %v/%v elapsed %v/%v", i, a.Loss, b.Loss, a.Elapsed, b.Elapsed)
				}
				for j := range a.Unit {
					if a.Unit[j] != b.Unit[j] {
						t.Fatalf("history[%d].Unit[%d]: %v vs %v (not bitwise)", i, j, a.Unit[j], b.Unit[j])
					}
				}
				for k, v := range a.Point {
					if b.Point[k] != v {
						t.Fatalf("history[%d].Point[%q]: %v vs %v", i, k, v, b.Point[k])
					}
				}
			}
			ta, la := ref.LossOverTime()
			tb, lb := res.LossOverTime()
			for i := range la {
				if la[i] != lb[i] || ta[i] != tb[i] {
					t.Fatalf("loss-over-time[%d] differs: (%v,%v) vs (%v,%v)", i, ta[i], la[i], tb[i], lb[i])
				}
			}
		})
	}
}
