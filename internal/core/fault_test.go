package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/cache"
	"simcal/internal/obs"
	"simcal/internal/resilience"
)

// recordingFaultObserver extends recordingObserver with the
// FaultObserver callbacks, capturing recovery events for assertions.
type recordingFaultObserver struct {
	recordingObserver

	fmu      sync.Mutex
	panics   []string
	retries  []int
	timeouts int
	ckptsAt  []int
	ckptErrs []error
}

func (r *recordingFaultObserver) PanicRecovered(where string) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	r.panics = append(r.panics, where)
}

func (r *recordingFaultObserver) EvalRetried(attempt int, delay time.Duration, cause error) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	r.retries = append(r.retries, attempt)
}

func (r *recordingFaultObserver) EvalTimedOut(timeout time.Duration) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	r.timeouts++
}

func (r *recordingFaultObserver) CheckpointWritten(evaluations int) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	r.ckptsAt = append(r.ckptsAt, evaluations)
}

func (r *recordingFaultObserver) CheckpointFailed(err error) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	r.ckptErrs = append(r.ckptErrs, err)
}

func (r *recordingFaultObserver) checkpoints() []int {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	return append([]int(nil), r.ckptsAt...)
}

// TestPanicIsolationAlwaysOn: a panicking simulator configuration must
// degrade to a +Inf history entry — without a Resilience policy
// attached — and be reported through the FaultObserver.
func TestPanicIsolationAlwaysOn(t *testing.T) {
	var calls atomic.Int64
	rec := &recordingFaultObserver{}
	sim := Evaluator(func(_ context.Context, p Point) (float64, error) {
		if calls.Add(1)%3 == 0 {
			panic("simulator segfault")
		}
		return p["x"], nil
	})
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 24,
		Workers:        2,
		Seed:           1,
		Observer:       rec,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inf := 0
	for _, s := range res.History {
		if math.IsInf(s.Loss, 1) {
			inf++
		}
	}
	if inf != 24/3 {
		t.Errorf("%d +Inf entries, want %d (every 3rd call panics)", inf, 24/3)
	}
	rec.fmu.Lock()
	defer rec.fmu.Unlock()
	if len(rec.panics) != 24/3 {
		t.Errorf("PanicRecovered fired %d times, want %d", len(rec.panics), 24/3)
	}
	for _, where := range rec.panics {
		if where != "simulator" {
			t.Errorf("PanicRecovered site %q, want simulator", where)
		}
	}
}

// TestNegInfLossBecomesInf: a -Inf loss would win every best-loss
// comparison unconditionally; it must normalize to +Inf like NaN.
func TestNegInfLossBecomesInf(t *testing.T) {
	sim := Evaluator(func(context.Context, Point) (float64, error) {
		return math.Inf(-1), nil
	})
	prob := &Problem{Space: testSpace, sim: sim, workers: 1, maxEvals: 1, start: time.Now()}
	samples, err := prob.Evaluate(context.Background(), [][]float64{{0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(samples[0].Loss, 1) {
		t.Errorf("-Inf loss = %v, want +Inf", samples[0].Loss)
	}
	// And through the cache path as well.
	prob = &Problem{
		Space: testSpace, sim: sim, workers: 1, maxEvals: 1, start: time.Now(),
		cache: cache.New(nil), cacheKey: "neg-inf-test",
	}
	samples, err = prob.Evaluate(context.Background(), [][]float64{{0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(samples[0].Loss, 1) {
		t.Errorf("cached -Inf loss = %v, want +Inf", samples[0].Loss)
	}
}

// TestResilienceRetriesDontConsumeBudget: transient failures retry
// inside one evaluation; the budget still buys the full number of
// completed evaluations, and the retry counters record the recoveries.
func TestResilienceRetriesDontConsumeBudget(t *testing.T) {
	var firstAttempts sync.Map
	var simCalls atomic.Int64
	sim := Evaluator(func(_ context.Context, p Point) (float64, error) {
		simCalls.Add(1)
		if _, loaded := firstAttempts.LoadOrStore(p.String(), true); !loaded {
			return 0, resilience.MarkTransient(errors.New("infrastructure hiccup"))
		}
		return p["x"], nil
	})
	reg := obs.NewRegistry()
	pol := resilience.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 16,
		Workers:        2,
		Seed:           2,
		Observer:       NewObsObserver(reg, nil),
		Resilience:     &pol,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 16 {
		t.Errorf("Evaluations = %d, want the full 16 (retries must not consume budget)", res.Evaluations)
	}
	for _, s := range res.History {
		if math.IsInf(s.Loss, 1) {
			t.Error("transient failure leaked into history despite retries")
			break
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["eval_retries"]; got != 16 {
		t.Errorf("eval_retries = %d, want 16 (one transient failure per unique point)", got)
	}
	if got := simCalls.Load(); got != 32 {
		t.Errorf("simulator ran %d times, want 32 (16 evaluations x 2 attempts)", got)
	}
}

// TestResilienceTimeoutFreesWorker: a hung simulator is abandoned at
// the per-attempt timeout; the calibration completes and the timeout is
// counted.
func TestResilienceTimeoutFreesWorker(t *testing.T) {
	var hung atomic.Bool
	sim := Evaluator(func(ctx context.Context, p Point) (float64, error) {
		if hung.CompareAndSwap(false, true) {
			<-ctx.Done() // hang forever (until abandoned)
			return 0, ctx.Err()
		}
		return p["x"], nil
	})
	reg := obs.NewRegistry()
	pol := resilience.Policy{
		Timeout:     20 * time.Millisecond,
		MaxAttempts: 2,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
	}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 8,
		Workers:        2,
		Seed:           3,
		Observer:       NewObsObserver(reg, nil),
		Resilience:     &pol,
	}
	start := time.Now()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 8 {
		t.Errorf("Evaluations = %d, want 8", res.Evaluations)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("run took %v: the hung evaluation stalled a worker", el)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["eval_timeouts"]; got != 1 {
		t.Errorf("eval_timeouts = %d, want 1", got)
	}
	if got := snap.Counters["eval_retries"]; got != 1 {
		t.Errorf("eval_retries = %d, want 1 (the timed-out attempt)", got)
	}
}

// TestExhaustedTransientFailuresStayUncached: a simulator that fails
// transiently on every attempt costs each evaluation all its attempts
// and a +Inf loss, and nothing gets memoized — the same point may well
// succeed later.
func TestExhaustedTransientFailuresStayUncached(t *testing.T) {
	var simCalls atomic.Int64
	sim := Evaluator(func(context.Context, Point) (float64, error) {
		simCalls.Add(1)
		return 0, resilience.MarkTransient(errors.New("endpoint down"))
	})
	pol := resilience.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	co := cache.New(nil)
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 16,
		Workers:        1,
		Seed:           4,
		Resilience:     &pol,
		Cache:          co,
		CacheKey:       "dead-sim",
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 16 {
		t.Errorf("Evaluations = %d, want 16", res.Evaluations)
	}
	for _, s := range res.History {
		if !math.IsInf(s.Loss, 1) {
			t.Error("dead simulator produced a finite loss")
			break
		}
	}
	if calls := simCalls.Load(); calls != 32 {
		t.Errorf("simulator called %d times, want 32 (16 evaluations x 2 attempts)", calls)
	}
	if st := co.Stats(); st.Entries != 0 {
		t.Errorf("%d transient failures memoized; they must stay uncached", st.Entries)
	}
}

// TestCheckpointMetrics: snapshot writes surface through the
// checkpoints_written counter and panic recoveries through
// eval_panics_recovered, under the exact metric names.
func TestCheckpointAndPanicMetrics(t *testing.T) {
	var calls atomic.Int64
	sim := Evaluator(func(_ context.Context, p Point) (float64, error) {
		if calls.Add(1) == 5 {
			panic("one-off crash")
		}
		return p["x"], nil
	})
	reg := obs.NewRegistry()
	dir := t.TempDir()
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 24,
		Workers:        1,
		Seed:           5,
		Observer:       NewObsObserver(reg, nil),
		Checkpoint:     &CheckpointSpec{Path: dir + "/ck.json", Every: 8},
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["checkpoints_written"]; got != 3 {
		t.Errorf("checkpoints_written = %d, want 3 (evals 8, 16, 24)", got)
	}
	if got := snap.Counters["eval_panics_recovered"]; got != 1 {
		t.Errorf("eval_panics_recovered = %d, want 1", got)
	}
}

// TestCheckpointFailureDoesNotKillRun: an unwritable checkpoint path
// degrades to CheckpointFailed notifications; the calibration itself
// completes untouched.
func TestCheckpointFailureDoesNotKillRun(t *testing.T) {
	rec := &recordingFaultObserver{}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 2, "y": 2}),
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 16,
		Workers:        1,
		Seed:           6,
		Observer:       rec,
		Checkpoint:     &CheckpointSpec{Path: "/nonexistent-dir-for-sure/ck.json", Every: 4},
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 16 {
		t.Errorf("Evaluations = %d, want 16", res.Evaluations)
	}
	rec.fmu.Lock()
	defer rec.fmu.Unlock()
	if len(rec.ckptErrs) == 0 {
		t.Error("CheckpointFailed never fired for an unwritable path")
	}
	if len(rec.ckptsAt) != 0 {
		t.Errorf("CheckpointWritten fired (%v) despite the unwritable path", rec.ckptsAt)
	}
}

// TestFaultTraceEvents: recovery events appear in the JSONL trace with
// the documented names, so -replay can reconstruct faulty runs.
func TestFaultTraceEvents(t *testing.T) {
	var calls atomic.Int64
	sim := Evaluator(func(_ context.Context, p Point) (float64, error) {
		switch calls.Add(1) {
		case 2:
			panic("crash")
		case 4:
			return 0, resilience.MarkTransient(errors.New("hiccup"))
		}
		return p["x"], nil
	})
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	pol := resilience.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	dir := t.TempDir()
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 8,
		Workers:        1,
		Seed:           7,
		Observer:       NewObsObserver(nil, tracer),
		Resilience:     &pol,
		Checkpoint:     &CheckpointSpec{Path: dir + "/ck.json", Every: 4},
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range recs {
		seen[r.Name]++
	}
	for _, want := range []string{obs.EventPanicRecovered, obs.EventEvalRetried, obs.EventCheckpointWritten} {
		if seen[want] == 0 {
			t.Errorf("trace lacks %q events: %v", want, seen)
		}
	}
}
