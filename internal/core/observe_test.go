package core

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/obs"
)

// recordingObserver captures callback names in order.
type recordingObserver struct {
	mu       sync.Mutex
	events   []string
	evals    int
	improves int
	batches  int
	fits     int
	acqs     int
	started  *RunInfo
	finished *Result
}

func (r *recordingObserver) add(e string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func (r *recordingObserver) CalibrationStarted(info RunInfo) {
	r.add("started")
	r.started = &info
}
func (r *recordingObserver) BatchProposed(size int) { r.add("batch"); r.batches++ }
func (r *recordingObserver) EvalCompleted(s Sample, wait, dur time.Duration) {
	r.add("eval")
	r.mu.Lock()
	r.evals++
	r.mu.Unlock()
}
func (r *recordingObserver) IncumbentImproved(s Sample) {
	r.add("improved")
	r.mu.Lock()
	r.improves++
	r.mu.Unlock()
}
func (r *recordingObserver) SurrogateFitted(points int, dur time.Duration) { r.add("fit"); r.fits++ }
func (r *recordingObserver) AcquisitionSolved(candidates int, predict, dur time.Duration) {
	r.add("acq")
	r.acqs++
}
func (r *recordingObserver) CalibrationFinished(res *Result) { r.add("finished"); r.finished = res }

func TestObserverLifecycle(t *testing.T) {
	rec := &recordingObserver{}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 3, "y": 7}),
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 20,
		Workers:        2,
		Seed:           1,
		Observer:       rec,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.started == nil {
		t.Fatal("CalibrationStarted not fired")
	}
	if rec.started.Algorithm != "test-random" || rec.started.Workers != 2 || rec.started.MaxEvaluations != 20 {
		t.Fatalf("RunInfo = %+v", *rec.started)
	}
	if len(rec.started.Space) != 2 || rec.started.Space[0] != "x" {
		t.Fatalf("RunInfo.Space = %v", rec.started.Space)
	}
	if rec.evals != 20 {
		t.Fatalf("EvalCompleted fired %d times, want 20", rec.evals)
	}
	if rec.batches != 5 {
		t.Fatalf("BatchProposed fired %d times, want 5 (20 evals / batch 4)", rec.batches)
	}
	if rec.improves < 1 {
		t.Fatal("IncumbentImproved never fired")
	}
	if rec.finished == nil || rec.finished.Best.Loss != res.Best.Loss {
		t.Fatalf("CalibrationFinished result mismatch")
	}
	if rec.events[0] != "started" || rec.events[len(rec.events)-1] != "finished" {
		t.Fatalf("callback order: first=%q last=%q", rec.events[0], rec.events[len(rec.events)-1])
	}
	// The first evaluation of the run always improves the incumbent,
	// and its callback must directly follow that eval's EvalCompleted.
	for i, e := range rec.events {
		if e == "eval" {
			if rec.events[i+1] != "improved" {
				t.Fatalf("first eval not followed by improvement: %v", rec.events[:i+2])
			}
			break
		}
	}
}

// TestBestSharesTheIncumbent: Best hands out the incumbent itself — no
// copy, no allocation, its unit the history entry's own — and a sample
// it has handed out stays as it was when a better one is recorded.
func TestBestSharesTheIncumbent(t *testing.T) {
	prob := &Problem{Space: testSpace, sim: sphereLoss(Point{"x": 0, "y": 0}), workers: 1, start: time.Now()}
	if _, err := prob.Evaluate(context.Background(), [][]float64{{0.9, 0.9}}); err != nil {
		t.Fatal(err)
	}
	b1 := prob.Best()
	if h := prob.History(); &b1.Unit[0] != &h[0].Unit[0] {
		t.Fatal("Best's unit is a copy, not the history entry's")
	}
	if n := testing.AllocsPerRun(100, func() { prob.Best() }); n != 0 {
		t.Fatalf("Best allocates %v times, want 0", n)
	}
	loss, x, u := b1.Loss, b1.Point["x"], b1.Unit[0]
	if _, err := prob.Evaluate(context.Background(), [][]float64{{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	b2 := prob.Best()
	if b2 == b1 || b2.Loss >= loss {
		t.Fatalf("a better sample did not replace the incumbent: %+v after %+v", *b2, *b1)
	}
	if b1.Loss != loss || b1.Point["x"] != x || b1.Unit[0] != u {
		t.Fatalf("recording a better sample rewrote the one Best handed out: %+v", *b1)
	}
}

// TestEvaluateStopsDispatchOnExpiredContext is the regression test for
// a large batch overrunning an expired deadline: once the context is
// done, no further evaluations may start, and the partial batch must be
// recorded in history.
func TestEvaluateStopsDispatchOnExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls int
	sim := Evaluator(func(c context.Context, p Point) (float64, error) {
		if c.Err() != nil {
			return 0, c.Err()
		}
		calls++
		if calls == 3 {
			cancel() // budget expires while the batch is mid-flight
		}
		return p["x"], nil
	})
	prob := &Problem{Space: testSpace, sim: sim, workers: 1, start: time.Now()}
	units := make([][]float64, 10)
	for i := range units {
		units[i] = []float64{float64(i) / 10, 0.5}
	}
	samples, err := prob.Evaluate(ctx, units)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if calls >= 10 {
		t.Fatalf("all %d evaluations ran despite the context expiring at the 3rd", calls)
	}
	if len(samples) == 0 || len(samples) > calls {
		t.Fatalf("returned %d samples with %d sim calls", len(samples), calls)
	}
	hist := prob.History()
	if len(hist) != len(samples) {
		t.Fatalf("partial batch not recorded: history %d, samples %d", len(hist), len(samples))
	}
	if got := prob.Evaluations(); got != len(samples) {
		t.Fatalf("Evaluations() = %d, want %d", got, len(samples))
	}
}

// TestConcurrentHistoryAndEvaluate exercises History/Best/Evaluations
// readers racing parallel Evaluate writers; run under -race it verifies
// the locking discipline.
func TestConcurrentHistoryAndEvaluate(t *testing.T) {
	prob := &Problem{Space: testSpace, sim: sphereLoss(Point{"x": 5, "y": 5}), workers: 4, start: time.Now()}
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := prob.History()
				for i := 1; i < len(h); i++ {
					if h[i].Elapsed < 0 {
						t.Error("negative elapsed in history")
						return
					}
				}
				if b := prob.Best(); b != nil {
					_ = b.Point["x"]
				}
				_ = prob.Evaluations()
			}
		}()
	}
	for batch := 0; batch < 8; batch++ {
		units := make([][]float64, 16)
		for i := range units {
			units[i] = []float64{float64(i) / 16, float64(batch) / 8}
		}
		if _, err := prob.Evaluate(ctx, units); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := len(prob.History()); got != 8*16 {
		t.Fatalf("history length = %d, want %d", got, 8*16)
	}
}

// TestLossOverTimeMonotoneParallel verifies the convergence curve stays
// non-increasing when evaluations complete out of order across parallel
// workers.
func TestLossOverTimeMonotoneParallel(t *testing.T) {
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 2, "y": 8}),
		Algorithm:      randomSearch{batch: 8},
		MaxEvaluations: 120,
		Workers:        4,
		Seed:           3,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	times, losses := res.LossOverTime()
	if len(times) != res.Evaluations || len(losses) != res.Evaluations {
		t.Fatalf("curve length %d/%d, want %d", len(times), len(losses), res.Evaluations)
	}
	for i := 1; i < len(losses); i++ {
		if losses[i] > losses[i-1] {
			t.Fatalf("best loss increased at %d: %g -> %g", i, losses[i-1], losses[i])
		}
	}
	for i := 0; i < len(times); i++ {
		if times[i] < 0 {
			t.Fatalf("negative elapsed at %d", i)
		}
	}
}

// callCounter counts the observer calls that /statusz's evaluations and
// bo_iterations count, and passes every call on.
type callCounter struct {
	Observer
	evals, batches atomic.Int64
}

func (c *callCounter) BatchProposed(size int) {
	c.batches.Add(1)
	c.Observer.BatchProposed(size)
}

func (c *callCounter) EvalCompleted(s Sample, wait, dur time.Duration) {
	c.evals.Add(1)
	c.Observer.EvalCompleted(s, wait, dur)
}

// TestObsObserverMetrics checks the bridge populates the registry, and
// that /statusz's evaluations and bo_iterations, the counts of the
// cal.eval_ns and cal.batch_size histograms, are the EvalCompleted and
// BatchProposed calls the calibration made.
func TestObsObserverMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	calls := &callCounter{Observer: NewObsObserver(reg, nil)}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 1, "y": 9}),
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 16,
		Workers:        2,
		Seed:           5,
		Observer:       calls,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if b := s.Histograms["cal.batch_size"]; b.Count != 4 || b.Sum != 16 {
		t.Fatalf("cal.batch_size count = %d, sum = %d; want 4 batches of 16 evaluations", b.Count, b.Sum)
	}
	if got := s.Gauges["cal.best_loss"]; got != res.Best.Loss {
		t.Fatalf("cal.best_loss = %g, want %g", got, res.Best.Loss)
	}
	if s.Histograms["cal.eval_ns"].Count != 16 {
		t.Fatalf("cal.eval_ns count = %d", s.Histograms["cal.eval_ns"].Count)
	}

	srv, err := obs.StartServer("127.0.0.1:0", obs.ServerConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	resp, err := http.Get("http://" + srv.Addr() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Calibration struct {
			Evaluations  int64 `json:"evaluations"`
			BOIterations int64 `json:"bo_iterations"`
		} `json:"calibration"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Calibration; got.Evaluations != calls.evals.Load() || got.BOIterations != calls.batches.Load() {
		t.Errorf("/statusz reads %d evaluations and %d bo_iterations, the calibration made %d EvalCompleted and %d BatchProposed calls",
			got.Evaluations, got.BOIterations, calls.evals.Load(), calls.batches.Load())
	}
}
