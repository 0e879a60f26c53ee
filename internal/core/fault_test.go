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

// TestCheckpointMetrics: journal syncs surface through the
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
		Checkpoint:     dir + "/ck.jsonl",
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["checkpoints_written"]; got != 6 {
		t.Errorf("checkpoints_written = %d, want 6 (one per batch of 4)", got)
	}
	if got := snap.Counters["eval_panics_recovered"]; got != 1 {
		t.Errorf("eval_panics_recovered = %d, want 1", got)
	}
}

// TestCheckpointFailureDoesNotKillRun: an unwritable journal path
// degrades to a CheckpointFailed notification; the calibration itself
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
		Checkpoint:     "/nonexistent-dir-for-sure/ck.jsonl",
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
		Checkpoint:     dir + "/ck.jsonl",
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

// attemptSim is an AsyncSimulator that counts the attempts at each
// point and hands each to answer. Its blocking Run fails the test:
// every attempt of every evaluation, retries included, must be a
// RunAsync call.
type attemptSim struct {
	t      *testing.T
	answer func(ctx context.Context, p Point, attempt int, done func(float64, error))

	mu       sync.Mutex
	attempts map[string]int
	calls    int
}

func (s *attemptSim) Run(context.Context, Point) (float64, error) {
	s.t.Error("the engine called the blocking Run of an AsyncSimulator")
	return 0, errors.New("blocking Run called")
}

func (s *attemptSim) RunAsync(ctx context.Context, p Point, done func(float64, error)) {
	s.mu.Lock()
	s.attempts[p.String()]++
	s.calls++
	n := s.attempts[p.String()]
	s.mu.Unlock()
	s.answer(ctx, p, n, done)
}

// count returns how many attempts reached the simulator.
func (s *attemptSim) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// retryObserver signals each retry on a channel.
type retryObserver struct {
	recordingFaultObserver
	retried chan struct{}
}

func (r *retryObserver) EvalRetried(attempt int, delay time.Duration, cause error) {
	r.recordingFaultObserver.EvalRetried(attempt, delay, cause)
	select {
	case r.retried <- struct{}{}:
	default:
	}
}

// TestAsyncSimulatorAttemptsUnderPolicy: under a resilience policy with
// an attempt timeout, an AsyncSimulator still gets every attempt through
// RunAsync. A transient first attempt is retried without consuming
// budget; an attempt held past its deadline times out and is retried,
// and its callback, arriving late while the retry is in flight, settles
// nothing; a cancel during a long backoff ends the calibration at once.
func TestAsyncSimulatorAttemptsUnderPolicy(t *testing.T) {
	t.Run("retries", func(t *testing.T) {
		const late = -42.0
		var (
			mu       sync.Mutex
			heldAt   string
			heldDone func(float64, error)
		)
		sim := &attemptSim{t: t, attempts: map[string]int{}}
		sim.answer = func(_ context.Context, p Point, attempt int, done func(float64, error)) {
			mu.Lock()
			hold := attempt == 1 && heldAt == ""
			if hold {
				heldAt, heldDone = p.String(), done
			}
			retryOfHeld := attempt == 2 && p.String() == heldAt
			mu.Unlock()
			switch {
			case hold:
				// Held past the deadline: the engine must time it out.
			case attempt == 1:
				done(0, resilience.MarkTransient(errors.New("worker lost")))
			default:
				if retryOfHeld {
					heldDone(late, nil) // the timed-out attempt answers, with its retry in flight
				}
				done(p["x"], nil)
			}
		}
		rec := &recordingFaultObserver{}
		pol := resilience.Policy{Timeout: 100 * time.Millisecond, MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
		c := &Calibrator{
			Space: testSpace, Simulator: sim, Algorithm: randomSearch{batch: 4},
			MaxEvaluations: 16, Workers: 2, Seed: 8, Observer: rec, Resilience: &pol,
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluations != 16 {
			t.Errorf("Evaluations = %d, want the full 16 (retries must not consume budget)", res.Evaluations)
		}
		for i, s := range res.History {
			if s.Loss != s.Point["x"] {
				t.Errorf("history[%d].Loss = %v, want the retry's %v", i, s.Loss, s.Point["x"])
			}
		}
		rec.fmu.Lock()
		defer rec.fmu.Unlock()
		if n := sim.count(); rec.timeouts != 1 || len(rec.retries) != 16 || n != 32 {
			t.Errorf("%d timeouts, %d retries, %d RunAsync calls; want 1, 16 (15 transient + 1 timeout) and 32",
				rec.timeouts, len(rec.retries), n)
		}
	})
	t.Run("cancel during backoff", func(t *testing.T) {
		sim := &attemptSim{t: t, attempts: map[string]int{}}
		sim.answer = func(_ context.Context, _ Point, _ int, done func(float64, error)) {
			done(0, resilience.MarkTransient(errors.New("endpoint down")))
		}
		rec := &retryObserver{retried: make(chan struct{}, 1)}
		pol := resilience.Policy{Timeout: time.Minute, MaxAttempts: 3, BaseDelay: 20 * time.Second, MaxDelay: 20 * time.Second}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c := &Calibrator{
			Space: testSpace, Simulator: sim, Algorithm: randomSearch{batch: 1},
			MaxEvaluations: 4, Workers: 1, Seed: 9, Observer: rec, Resilience: &pol,
		}
		errc := make(chan error, 1)
		go func() {
			_, err := c.Run(ctx)
			errc <- err
		}()
		select {
		case <-rec.retried: // the first attempt failed: its backoff of at least 10s starts
		case err := <-errc:
			t.Fatalf("Run = %v before any retry", err)
		}
		start := time.Now()
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("Run returned %v after the cancel: the backoff held the evaluation", el)
		}
		if n := sim.count(); n != 1 {
			t.Errorf("%d attempts, want 1: the canceled backoff must not start another", n)
		}
	})
}

// TestPolicyRetriesOnlyTransientFailures: under a generous policy, a
// deterministic failure and a recovered panic each cost their
// evaluation one attempt and a +Inf loss; neither is retried.
func TestPolicyRetriesOnlyTransientFailures(t *testing.T) {
	var simCalls atomic.Int64
	sim := Evaluator(func(_ context.Context, p Point) (float64, error) {
		simCalls.Add(1)
		switch x := p["x"]; {
		case x < 3:
			return 0, errors.New("bad config")
		case x < 6:
			panic("sim exploded")
		}
		return p["x"], nil
	})
	rec := &recordingFaultObserver{}
	pol := resilience.Policy{MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	c := &Calibrator{
		Space: testSpace, Simulator: sim, Algorithm: randomSearch{batch: 4},
		MaxEvaluations: 24, Workers: 2, Seed: 10, Observer: rec, Resilience: &pol,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	panics := 0
	for i, s := range res.History {
		if x := s.Point["x"]; x < 6 && !math.IsInf(s.Loss, 1) || x >= 6 && s.Loss != x {
			t.Errorf("history[%d] = %v at x=%v", i, s.Loss, x)
		}
		if x := s.Point["x"]; x >= 3 && x < 6 {
			panics++
		}
	}
	rec.fmu.Lock()
	defer rec.fmu.Unlock()
	if n := simCalls.Load(); n != 24 || len(rec.retries) != 0 {
		t.Errorf("%d simulator calls and %d retries, want 24 and none", n, len(rec.retries))
	}
	if len(rec.panics) != panics {
		t.Errorf("PanicRecovered fired %d times, want %d", len(rec.panics), panics)
	}
}

// TestTimeoutAbandonsUnresponsiveSimulator: a simulator that ignores
// its context is abandoned at the attempt deadline, and the evaluation
// settles once, as a timed-out +Inf. The abandoned attempt's late
// result, delivered while later evaluations run, is dropped.
func TestTimeoutAbandonsUnresponsiveSimulator(t *testing.T) {
	const late = -42.0
	var calls atomic.Int64
	release := make(chan struct{})
	sim := Evaluator(func(_ context.Context, p Point) (float64, error) {
		switch calls.Add(1) {
		case 1:
			<-release // deaf to its context
			return late, nil
		case 2:
			close(release)
		}
		return p["x"], nil
	})
	rec := &recordingFaultObserver{}
	pol := resilience.Policy{Timeout: 100 * time.Millisecond, MaxAttempts: 1}
	c := &Calibrator{
		Space: testSpace, Simulator: sim, Algorithm: randomSearch{batch: 4},
		MaxEvaluations: 8, Workers: 1, Seed: 11, Observer: rec, Resilience: &pol,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 8 || !math.IsInf(res.History[0].Loss, 1) {
		t.Fatalf("%d evaluations, first loss %v; want 8, the first timed out as +Inf", res.Evaluations, res.History[0].Loss)
	}
	for i, s := range res.History[1:] {
		if s.Loss != s.Point["x"] {
			t.Errorf("history[%d].Loss = %v, want %v: the abandoned attempt's result settled again", i+1, s.Loss, s.Point["x"])
		}
	}
	rec.fmu.Lock()
	defer rec.fmu.Unlock()
	if rec.timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", rec.timeouts)
	}
}

// TestParentCancelAbortsAttempt: canceling the caller's context while
// an attempt hangs (deaf to its context) ends the calibration at once
// as an abort, not a timeout or a retry.
func TestParentCancelAbortsAttempt(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	sim := Evaluator(func(context.Context, Point) (float64, error) {
		if calls.Add(1) == 1 {
			close(started)
		}
		<-release
		return 0, nil
	})
	rec := &recordingFaultObserver{}
	pol := resilience.Policy{Timeout: time.Minute, MaxAttempts: 5}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Calibrator{
		Space: testSpace, Simulator: sim, Algorithm: randomSearch{batch: 1},
		MaxEvaluations: 4, Workers: 1, Seed: 12, Observer: rec, Resilience: &pol,
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	rec.fmu.Lock()
	defer rec.fmu.Unlock()
	if n := calls.Load(); n != 1 || rec.timeouts != 0 || len(rec.retries) != 0 {
		t.Errorf("%d attempts, %d timeouts, %d retries; want 1, 0, 0", n, rec.timeouts, len(rec.retries))
	}
}

// TestPolicyUnderConcurrentFaults: many evaluations at once under a
// policy with a timeout, their attempts failing transiently, panicking
// or succeeding in turn. Every evaluation completes, and the simulator
// ran once per evaluation plus once per retry. Run under -race.
func TestPolicyUnderConcurrentFaults(t *testing.T) {
	var calls atomic.Int64
	sim := Evaluator(func(_ context.Context, p Point) (float64, error) {
		switch calls.Add(1) % 4 {
		case 0:
			return 0, resilience.MarkTransient(errors.New("flaky"))
		case 1:
			panic("boom")
		}
		return p["x"], nil
	})
	reg := obs.NewRegistry()
	pol := resilience.Policy{Timeout: time.Minute, MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	c := &Calibrator{
		Space: testSpace, Simulator: sim, Algorithm: randomSearch{batch: 16},
		MaxEvaluations: 160, Workers: 8, Seed: 13, Observer: NewObsObserver(reg, nil), Resilience: &pol,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 160 {
		t.Errorf("Evaluations = %d, want 160", res.Evaluations)
	}
	if n, retries := calls.Load(), reg.Counter("eval_retries").Value(); n != 160+retries {
		t.Errorf("%d simulator calls, want 160 evaluations + %d retries", n, retries)
	}
}
