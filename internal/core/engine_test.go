package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/cache"
)

// Evaluate is "submit k, consume in submission order" on the same
// engine Submit/Next/NextSeq drive directly. The tests here pin that
// equivalence from the outside: the same seed and units pushed through
// Evaluate and through a hand-written Submit + NextSeq loop must be
// indistinguishable in history, observer events and checkpoint bytes.

// eventLog is an Observer (and CacheObserver) that records every
// per-evaluation callback with the bits of the sample it carried, and
// the batch sizes proposed.
type eventLog struct {
	mu       sync.Mutex
	events   []string
	proposed int
}

func (l *eventLog) add(kind string, s Sample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf("%s %016x %016x %016x",
		kind, math.Float64bits(s.Unit[0]), math.Float64bits(s.Unit[1]), math.Float64bits(s.Loss)))
}

func (l *eventLog) CalibrationStarted(RunInfo)                          {}
func (l *eventLog) BatchProposed(size int)                              { l.mu.Lock(); l.proposed += size; l.mu.Unlock() }
func (l *eventLog) EvalCompleted(s Sample, _, _ time.Duration)          { l.add("eval", s) }
func (l *eventLog) CacheHit(s Sample)                                   { l.add("hit", s) }
func (l *eventLog) IncumbentImproved(s Sample)                          { l.add("improved", s) }
func (l *eventLog) SurrogateFitted(int, time.Duration)                  {}
func (l *eventLog) AcquisitionSolved(int, time.Duration, time.Duration) {}
func (l *eventLog) CalibrationFinished(*Result)                         {}

// batchDriver proposes fixed-size batches from the shared RNG. From the
// second batch on, the first unit of a batch re-proposes the first unit
// of the batch before it — a point that has certainly finished, so with
// a cache attached it is a hit on either path, never a race between two
// in-flight twins. After every batch it keeps the checkpoint file's
// bytes. viaSubmit selects the hand-written path.
type batchDriver struct {
	batch     int
	viaSubmit bool
	ckptPath  string

	boundaries [][]byte
}

func (d *batchDriver) Name() string { return "test-batch-driver" }

func (d *batchDriver) Optimize(ctx context.Context, prob *Problem) error {
	var prev []float64
	for {
		units := make([][]float64, d.batch)
		for i := range units {
			units[i] = prob.Space.Sample(prob.RNG)
		}
		if prev != nil {
			units[0] = prev
		}
		prev = units[0]
		err := d.evaluate(ctx, prob, units)
		if b, rerr := os.ReadFile(d.ckptPath); rerr == nil {
			d.boundaries = append(d.boundaries, b)
		}
		if err != nil {
			return err
		}
	}
}

func (d *batchDriver) evaluate(ctx context.Context, prob *Problem, units [][]float64) error {
	if !d.viaSubmit {
		_, err := prob.Evaluate(ctx, units)
		return err
	}
	run, err := prob.Async()
	if err != nil {
		return err
	}
	var seqs []int
	for _, u := range units {
		seq, err := run.Submit(ctx, u)
		if errors.Is(err, ErrBudgetExhausted) {
			break // the budget truncates the batch, as Evaluate does
		}
		if err != nil {
			return err
		}
		seqs = append(seqs, seq)
	}
	if len(seqs) == 0 {
		return ErrBudgetExhausted
	}
	for _, seq := range seqs {
		if _, err := run.NextSeq(ctx, seq); err != nil {
			return err
		}
	}
	return nil
}

// roughSim is deterministic in the point and exercises every
// normalization: an error, a NaN and a -Inf region next to ordinary
// losses.
func roughSim(_ context.Context, p Point) (float64, error) {
	switch x := p["x"]; {
	case x < 1:
		return 0, errors.New("brittle configuration")
	case x < 2:
		return math.NaN(), nil
	case x < 3:
		return math.Inf(-1), nil
	}
	return p["x"]*1e3 + p["y"], nil
}

func TestEvaluateEqualsSubmitThenNextSeq(t *testing.T) {
	const evals = 22 // not a multiple of 4 or 17: the last batch is truncated
	run := func(t *testing.T, workers, batch int, cached, viaSubmit bool) (*Result, *eventLog, *batchDriver) {
		t.Helper()
		log := &eventLog{}
		drv := &batchDriver{batch: batch, viaSubmit: viaSubmit, ckptPath: filepath.Join(t.TempDir(), "ck.jsonl")}
		c := &Calibrator{
			Space:          testSpace,
			Simulator:      Evaluator(roughSim),
			Algorithm:      drv,
			MaxEvaluations: evals,
			Workers:        workers,
			Seed:           5,
			Observer:       log,
			Clock:          frozenClock(),
		}
		if cached {
			c.Cache = cache.New(nil)
			c.CacheKey = "engine-test"
		} else {
			// The journal syncs at every consumption boundary, so after a
			// batch the file holds exactly the lines up to that batch's
			// end on both paths. (Uncached runs only: the cache does not
			// touch the lines, and the fsyncs are most of this test's
			// time.)
			c.Checkpoint = drv.ckptPath
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, log, drv
	}
	for _, workers := range []int{1, 2, 5} {
		for _, batch := range []int{1, 4, 17} {
			for _, cached := range []bool{false, true} {
				t.Run(fmt.Sprintf("workers=%d/batch=%d/cache=%v", workers, batch, cached), func(t *testing.T) {
					ref, refLog, refDrv := run(t, workers, batch, cached, false)
					got, gotLog, gotDrv := run(t, workers, batch, cached, true)
					if ref.Evaluations != evals {
						t.Fatalf("Evaluate path completed %d evaluations, want %d", ref.Evaluations, evals)
					}
					resultsIdentical(t, ref, got)
					for i := range ref.History {
						if math.Float64bits(ref.History[i].Loss) != math.Float64bits(got.History[i].Loss) {
							t.Fatalf("history[%d].Loss bits differ: %v vs %v", i, ref.History[i].Loss, got.History[i].Loss)
						}
					}
					if refLog.proposed != evals || gotLog.proposed != evals {
						t.Errorf("BatchProposed sizes sum to %d (Evaluate) and %d (Submit), want %d both", refLog.proposed, gotLog.proposed, evals)
					}
					if len(refLog.events) != len(gotLog.events) {
						t.Fatalf("observer saw %d events through Evaluate, %d through Submit+NextSeq", len(refLog.events), len(gotLog.events))
					}
					hits := 0
					for i, e := range refLog.events {
						if e != gotLog.events[i] {
							t.Fatalf("observer event %d: %q through Evaluate, %q through Submit+NextSeq", i, e, gotLog.events[i])
						}
						if e[:3] == "hit" {
							hits++
						}
					}
					if wantHits := (evals - 1) / batch; cached && hits != wantHits {
						t.Errorf("cache hits observed = %d, want %d (one re-proposed point per batch after the first)", hits, wantHits)
					}
					if cached {
						return
					}
					if len(refDrv.boundaries) == 0 || len(refDrv.boundaries) != len(gotDrv.boundaries) {
						t.Fatalf("checkpoint boundaries: %d through Evaluate, %d through Submit+NextSeq", len(refDrv.boundaries), len(gotDrv.boundaries))
					}
					for i := range refDrv.boundaries {
						if !bytes.Equal(refDrv.boundaries[i], gotDrv.boundaries[i]) {
							t.Fatalf("checkpoint after batch %d differs:\n%s\n%s", i, refDrv.boundaries[i], gotDrv.boundaries[i])
						}
						if bytes.Contains(refDrv.boundaries[i], []byte(`"order"`)) || bytes.Contains(refDrv.boundaries[i], []byte(`"inflight"`)) {
							t.Fatalf("batch checkpoint %d carries an order or a frontier:\n%s", i, refDrv.boundaries[i])
						}
					}
				})
			}
		}
	}
}

// TestEvaluateMidBatchExpiry: the budget context expires while a batch
// is half dispatched. The evaluation cut short is not recorded (no
// phantom +Inf), the ones that did finish are — in input order — the
// rest of the batch is never started, and every budget slot the batch
// took is released. The hand-written Submit + NextSeq path ends in the
// same state.
func TestEvaluateMidBatchExpiry(t *testing.T) {
	// Unit i decodes to x = i + 0.5 on [0, 10]: the simulator knows which
	// batch position it is running.
	units := make([][]float64, 6)
	for i := range units {
		units[i] = []float64{(float64(i) + 0.5) / 10, 0.5}
	}
	for _, viaSubmit := range []bool{false, true} {
		t.Run(fmt.Sprintf("viaSubmit=%v", viaSubmit), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started [6]bool
			var mu sync.Mutex
			sim := Evaluator(func(ctx context.Context, p Point) (float64, error) {
				i := int(p["x"])
				mu.Lock()
				started[i] = true
				mu.Unlock()
				switch i {
				case 1: // still running when the budget expires: aborted
					<-ctx.Done()
					return 0, ctx.Err()
				case 2: // the budget expires during this one; it still finishes
					cancel()
				}
				return p["x"], nil
			})
			prob := &Problem{Space: testSpace, sim: sim, workers: 2, maxEvals: 10, start: time.Now()}
			var got []Sample
			var err error
			if viaSubmit {
				run, _ := prob.Async()
				for _, u := range units[:3] { // what Evaluate's slot gate lets through
					if _, serr := run.Submit(ctx, u); serr != nil {
						t.Fatal(serr)
					}
				}
				for seq := 0; seq < 3; seq++ {
					c, nerr := run.NextSeq(ctx, seq)
					if nerr != nil {
						err = nerr
						continue
					}
					got = append(got, c.Sample)
				}
			} else {
				got, err = prob.Evaluate(ctx, units)
			}
			if !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("err = %v, want ErrBudgetExhausted", err)
			}
			hist := prob.History()
			if len(got) != 2 || len(hist) != 2 || prob.Evaluations() != 2 {
				t.Fatalf("returned %d samples, history %d, Evaluations() %d; want 2 each", len(got), len(hist), prob.Evaluations())
			}
			for i, wantX := range []float64{0.5, 2.5} {
				if got[i].Point["x"] != wantX || hist[i].Point["x"] != wantX {
					t.Errorf("sample %d: x = %v (history %v), want %v — the partial batch must stay in input order", i, got[i].Point["x"], hist[i].Point["x"], wantX)
				}
				if math.IsInf(got[i].Loss, 1) {
					t.Errorf("sample %d is a phantom +Inf", i)
				}
			}
			if !viaSubmit && (started[3] || started[4] || started[5]) {
				t.Errorf("evaluations started after the budget expired: %v", started)
			}
			a := prob.engine()
			if n := a.InFlight(); n != 0 {
				t.Errorf("%d submissions still pending after the batch", n)
			}
			if room := a.room(); room != 10-2 {
				t.Errorf("budget room = %d after recording 2 of 10, want 8: an aborted evaluation kept its slot", room)
			}
		})
	}
}

// staleErrCtx lets a test act between a context check and what the
// checker does with the answer: hook runs inside Err, after the answer
// is taken.
type staleErrCtx struct {
	context.Context
	hook func()
}

func (c *staleErrCtx) Err() error {
	err := c.Context.Err()
	c.hook()
	return err
}

// TestCancelFreeingTheSlotStartsNothing: the evaluation holding the only
// slot cancels the context and then completes. The cancel comes before
// the completion that frees the slot, so the evaluation waiting for that
// slot must not start — even when the waiter checked the context just
// before the cancel.
func TestCancelFreeingTheSlotStartsNothing(t *testing.T) {
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	var calls atomic.Int64
	sim := Evaluator(func(_ context.Context, p Point) (float64, error) {
		calls.Add(1)
		if p["x"] < 2 {
			<-release
			cancel()
		}
		return 1, nil
	})
	prob := &Problem{Space: testSpace, sim: sim, workers: 1, start: time.Now()}
	a := prob.engine()
	fired := false
	ctx := &staleErrCtx{Context: inner}
	ctx.hook = func() {
		// The first check once the first unit runs is the wait for a slot
		// for the second (both on this, the driver goroutine). Let the
		// first evaluation cancel and complete before that check's answer
		// is acted on.
		if fired || a.nextSeq != 1 {
			return
		}
		fired = true
		close(release)
		for {
			a.mu.Lock()
			done := len(a.arrivals) == 1
			a.mu.Unlock()
			if done {
				return
			}
			runtime.Gosched()
		}
	}
	samples, err := prob.Evaluate(ctx, [][]float64{{0.1, 0.5}, {0.3, 0.5}})
	if !errors.Is(err, ErrBudgetExhausted) || len(samples) != 1 {
		t.Errorf("Evaluate returned %d samples, err %v; want the first sample and ErrBudgetExhausted", len(samples), err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d evaluations ran, want 1: the second started after the cancel that preceded the completion freeing its slot", n)
	}
}
