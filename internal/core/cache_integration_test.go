package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/cache"
	"simcal/internal/obs"
	"simcal/internal/resilience"
)

// cacheRecordingObserver extends recordingObserver with the optional
// CacheObserver callback.
type cacheRecordingObserver struct {
	recordingObserver
	hits int
}

func (c *cacheRecordingObserver) CacheHit(s Sample) {
	c.add("hit")
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

// TestEvaluateCacheHitBatch drives a batch with duplicate points through
// a cached Problem: the simulator must run once per distinct point,
// while history ordering, Evaluations(), and observer callback counts
// treat every submission — hit or miss — as a full evaluation.
func TestEvaluateCacheHitBatch(t *testing.T) {
	var calls atomic.Int64
	sim := Evaluator(func(_ context.Context, p Point) (float64, error) {
		calls.Add(1)
		return p["x"] + p["y"], nil
	})
	rec := &cacheRecordingObserver{}
	prob := &Problem{
		Space:    testSpace,
		sim:      sim,
		workers:  2,
		start:    time.Now(),
		obs:      rec,
		cache:    cache.New(nil),
		cacheKey: "test",
	}
	u1, u2 := []float64{0.25, 0.75}, []float64{0.5, 0.5}
	units := [][]float64{u1, u2, u1, u2}
	samples, err := prob.Evaluate(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("simulator ran %d times, want 2 (one per distinct point)", got)
	}
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	// History preserves submission order, and cache hits carry the
	// original loss.
	for i, s := range samples {
		if s.Unit[0] != units[i][0] || s.Unit[1] != units[i][1] {
			t.Errorf("sample %d out of order: unit %v, want %v", i, s.Unit, units[i])
		}
	}
	if samples[0].Loss != samples[2].Loss || samples[1].Loss != samples[3].Loss {
		t.Error("cache hit returned a different loss than the original evaluation")
	}
	if got := prob.Evaluations(); got != 4 {
		t.Errorf("Evaluations() = %d, want 4 (hits count against the budget)", got)
	}
	if len(prob.History()) != 4 {
		t.Errorf("history length = %d, want 4", len(prob.History()))
	}
	if rec.evals != 4 {
		t.Errorf("EvalCompleted fired %d times, want 4", rec.evals)
	}
	if rec.hits != 2 {
		t.Errorf("CacheHit fired %d times, want 2", rec.hits)
	}
	// Each CacheHit must directly follow its sample's EvalCompleted.
	for i, e := range rec.events {
		if e == "hit" && rec.events[i-1] != "eval" {
			t.Fatalf("CacheHit not preceded by EvalCompleted: %v", rec.events)
		}
	}
	st := prob.cache.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("cache stats = %+v, want 2 hits / 2 misses", st)
	}
}

// TestEvaluateCachedFailureIsMemoized checks that a deterministic
// simulator failure is cached as +Inf rather than retried, and that an
// observer without the CacheHit extension still works.
func TestEvaluateCachedFailureIsMemoized(t *testing.T) {
	var calls atomic.Int64
	failing := Evaluator(func(_ context.Context, p Point) (float64, error) {
		calls.Add(1)
		return 0, errors.New("simulator crashed")
	})
	rec := &recordingObserver{} // no CacheHit method: must not panic
	prob := &Problem{
		Space:    testSpace,
		sim:      failing,
		workers:  1,
		start:    time.Now(),
		obs:      rec,
		cache:    cache.New(nil),
		cacheKey: "test",
	}
	u := []float64{0.5, 0.5}
	samples, err := prob.Evaluate(context.Background(), [][]float64{u, u})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("failing simulator ran %d times, want 1 (failure memoized as +Inf)", got)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	if rec.evals != 2 {
		t.Errorf("EvalCompleted fired %d times, want 2", rec.evals)
	}
}

// TestEvaluateTruncationObserverCounts covers partial-batch semantics
// under evaluation-count truncation: the accepted prefix is evaluated in
// order and the observer sees exactly the truncated size.
func TestEvaluateTruncationObserverCounts(t *testing.T) {
	rec := &recordingObserver{}
	prob := &Problem{
		Space:    testSpace,
		sim:      sphereLoss(Point{"x": 1, "y": 1}),
		workers:  2,
		maxEvals: 3,
		start:    time.Now(),
		obs:      rec,
	}
	units := [][]float64{{0, 0}, {0.25, 0.25}, {0.5, 0.5}, {0.75, 0.75}, {1, 1}}
	samples, err := prob.Evaluate(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3 (truncated to remaining budget)", len(samples))
	}
	for i, s := range samples {
		if s.Unit[0] != units[i][0] {
			t.Errorf("sample %d out of order", i)
		}
	}
	if prob.Evaluations() != 3 || len(prob.History()) != 3 {
		t.Errorf("Evaluations()=%d history=%d, want 3/3", prob.Evaluations(), len(prob.History()))
	}
	if rec.evals != 3 {
		t.Errorf("EvalCompleted fired %d times, want 3", rec.evals)
	}
	if rec.batches != 1 {
		t.Errorf("BatchProposed fired %d times, want 1", rec.batches)
	}
}

// TestEvaluateMidBatchExpiryObserverCounts covers compaction: when the
// context expires mid-batch, history, Evaluations(), and observer
// callbacks all agree on the completed subset, in submission order.
func TestEvaluateMidBatchExpiryObserverCounts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls int
	sim := Evaluator(func(c context.Context, p Point) (float64, error) {
		if c.Err() != nil {
			return 0, c.Err()
		}
		calls++
		if calls == 2 {
			cancel()
		}
		return p["x"], nil
	})
	rec := &recordingObserver{}
	prob := &Problem{Space: testSpace, sim: sim, workers: 1, start: time.Now(), obs: rec}
	units := make([][]float64, 8)
	for i := range units {
		units[i] = []float64{float64(i) / 8, 0.5}
	}
	samples, err := prob.Evaluate(ctx, units)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if len(samples) == 0 || len(samples) > calls {
		t.Fatalf("returned %d samples with %d sim calls", len(samples), calls)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Unit[0] < samples[i-1].Unit[0] {
			t.Error("compacted samples out of submission order")
		}
	}
	if prob.Evaluations() != len(samples) || len(prob.History()) != len(samples) {
		t.Errorf("Evaluations()=%d history=%d, want %d", prob.Evaluations(), len(prob.History()), len(samples))
	}
	if rec.evals != len(samples) {
		t.Errorf("EvalCompleted fired %d times, want %d", rec.evals, len(samples))
	}
}

// TestCalibratorParentCancellation is the regression test for Ctrl-C
// masquerading as success: when the caller's own context is canceled the
// run must report the cancellation, not a "successful" partial result.
func TestCalibratorParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	sim := Evaluator(func(_ context.Context, p Point) (float64, error) {
		if n.Add(1) == 5 {
			cancel()
		}
		return p["x"], nil
	})
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: 2},
		MaxEvaluations: 1000,
		Budget:         time.Hour, // the budget timeout is NOT the canceler here
		Workers:        1,
		Seed:           1,
	}
	res, err := c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned (%v, %v), want context.Canceled", res, err)
	}
}

// TestCalibratorCacheRequiresKey: an empty CacheKey would let unrelated
// simulators exchange losses, so it is rejected up front.
func TestCalibratorCacheRequiresKey(t *testing.T) {
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 1, "y": 1}),
		Algorithm:      randomSearch{},
		MaxEvaluations: 10,
		Cache:          cache.New(nil),
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("Cache without CacheKey accepted")
	}
	c.CacheKey = "ok"
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayWithCacheHits: a cached run's journal still replays
// bit-exactly — a cache hit is journaled as a consumption like any other
// (original loss, own elapsed time) — while its trace carries a
// cache_hit marker.
func TestJournalReplayWithCacheHits(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	cc := cache.New(nil)
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	mk := func(obsv Observer, checkpoint string) *Result {
		c := &Calibrator{
			Space:          testSpace,
			Simulator:      sphereLoss(Point{"x": 2, "y": 3}),
			Algorithm:      randomSearch{batch: 4},
			MaxEvaluations: 40,
			Workers:        2,
			Seed:           9,
			Cache:          cc,
			CacheKey:       "replay",
			Observer:       obsv,
			Checkpoint:     checkpoint,
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mk(nil, "") // warm the cache so the journaled run has hits
	res := mk(NewObsObserver(obs.NewRegistry(), tracer), path)
	if st := cc.Stats(); st.Hits == 0 {
		t.Fatalf("no cache hits in the journaled run: %+v", st)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, r := range recs {
		if r.Name == obs.EventCacheHit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("trace contains no cache_hit events")
	}
	jr, err := ReadJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	journalMatches(t, jr, res)
}

// heldSim is an AsyncSimulator that holds every evaluation's callback
// until the test releases it. Its blocking Run fails the test: the
// engine delivers through RunAsync, with a cache attached too.
type heldSim struct {
	t    *testing.T
	mu   sync.Mutex
	held []func(float64, error)
}

func (s *heldSim) Run(context.Context, Point) (float64, error) {
	s.t.Error("the engine called the blocking Run of an AsyncSimulator")
	return 0, errors.New("blocking Run called")
}

func (s *heldSim) RunAsync(_ context.Context, _ Point, done func(float64, error)) {
	s.mu.Lock()
	s.held = append(s.held, done)
	s.mu.Unlock()
}

// calls returns how many evaluations reached the simulator.
func (s *heldSim) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.held)
}

// release delivers the outcome of the i-th evaluation that reached the
// simulator.
func (s *heldSim) release(i int, loss float64, err error) {
	s.mu.Lock()
	done := s.held[i]
	s.mu.Unlock()
	done(loss, err)
}

// cachedOn is a cached Problem over sim, two evaluations wide.
func cachedOn(sim Simulator, c *cache.Cache, o Observer) *Problem {
	return &Problem{Space: testSpace, sim: sim, workers: 2, start: time.Now(), obs: o, cache: c, cacheKey: "test"}
}

// consumeBoth consumes two completions and returns them by sequence
// number.
func consumeBoth(t *testing.T, a *AsyncRun) [2]AsyncCompletion {
	t.Helper()
	var got [2]AsyncCompletion
	for range 2 {
		c, err := a.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got[c.Seq] = c
	}
	return got
}

// TestCachedDuplicateJoinsInFlight: a submission whose point is in
// flight joins the owner's entry instead of reaching the simulator, and
// is consumed as a cache hit with the owner's loss once the owner's
// callback delivers.
func TestCachedDuplicateJoinsInFlight(t *testing.T) {
	sim := &heldSim{t: t}
	cc := cache.New(nil)
	rec := &cacheRecordingObserver{}
	a := cachedOn(sim, cc, rec).Async()
	u := []float64{0.5, 0.5}
	for range 2 {
		if _, err := a.Submit(context.Background(), u); err != nil {
			t.Fatal(err)
		}
	}
	if st := cc.Stats(); st.Misses != 1 || st.InflightWaits != 1 || sim.calls() != 1 {
		t.Fatalf("after two submissions of one point: stats %+v, %d simulator calls; want 1 miss, 1 in-flight wait, 1 call", st, sim.calls())
	}
	sim.release(0, 7, nil)
	got := consumeBoth(t, a)
	if got[0].CacheHit || got[0].Sample.Loss != 7 {
		t.Errorf("owner consumed as %+v, want a miss with loss 7", got[0])
	}
	if !got[1].CacheHit || got[1].Sample.Loss != 7 {
		t.Errorf("joined duplicate consumed as %+v, want a cache hit with loss 7", got[1])
	}
	if st := cc.Stats(); st.Hits != 1 || st.Entries != 1 || rec.hits != 1 {
		t.Errorf("stats %+v, %d CacheHit callbacks; want 1 hit, 1 entry, 1 callback", st, rec.hits)
	}
}

// TestCachedTransientOwnerFailureRedispatchesWaiter: when the owner of
// an in-flight point fails transiently, its own sample is +Inf and the
// point is not memoized; the joined duplicate claims the point again
// and reaches the simulator itself.
func TestCachedTransientOwnerFailureRedispatchesWaiter(t *testing.T) {
	sim := &heldSim{t: t}
	cc := cache.New(nil)
	a := cachedOn(sim, cc, nil).Async()
	u := []float64{0.25, 0.75}
	for range 2 {
		if _, err := a.Submit(context.Background(), u); err != nil {
			t.Fatal(err)
		}
	}
	sim.release(0, 0, resilience.MarkTransient(errors.New("worker lost")))
	if n := sim.calls(); n != 2 {
		t.Fatalf("after the owner's transient failure the simulator saw %d calls, want 2: the waiter re-dispatches", n)
	}
	sim.release(1, 5, nil)
	got := consumeBoth(t, a)
	if got[0].CacheHit || !math.IsInf(got[0].Sample.Loss, 1) {
		t.Errorf("failed owner consumed as %+v, want a miss with loss +Inf", got[0])
	}
	if got[1].CacheHit || got[1].Sample.Loss != 5 {
		t.Errorf("re-dispatched waiter consumed as %+v, want a miss with loss 5", got[1])
	}
	if st := cc.Stats(); st.Hits != 0 || st.Misses != 2 || st.InflightWaits != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 0 hits, 2 misses, 1 in-flight wait, 1 entry", st)
	}
}

// submitOne submits one unit, closes submitted, and consumes the
// completion.
type submitOne struct {
	u         []float64
	submitted chan struct{}
}

func (submitOne) Name() string { return "test-submit-one" }

func (s submitOne) Optimize(ctx context.Context, prob *Problem) error {
	run := prob.Async()
	if _, err := run.Submit(ctx, s.u); err != nil {
		return err
	}
	close(s.submitted)
	_, err := run.Next(ctx)
	return err
}

// TestCachedWaiterCancelReturnsWhileOwnerHeld: two calibrations share a
// cache, and the second joins the first's in-flight evaluation.
// Canceling the second returns its Run at once, while the first's
// evaluation is still held by the simulator; the first then finishes
// with its own loss.
func TestCachedWaiterCancelReturnsWhileOwnerHeld(t *testing.T) {
	cc := cache.New(nil)
	u := []float64{0.5, 0.25}
	calibrator := func(sim Simulator, alg Algorithm) *Calibrator {
		return &Calibrator{Space: testSpace, Simulator: sim, Algorithm: alg, MaxEvaluations: 1, Workers: 1, Cache: cc, CacheKey: "shared"}
	}
	owner := &heldSim{t: t}
	first := submitOne{u, make(chan struct{})}
	ownerRes := make(chan *Result, 1)
	go func() {
		res, err := calibrator(owner, first).Run(context.Background())
		if err != nil {
			t.Error(err)
		}
		ownerRes <- res
	}()
	<-first.submitted

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	second := submitOne{u, make(chan struct{})}
	waiterErr := make(chan error, 1)
	go func() {
		_, err := calibrator(&heldSim{t: t}, second).Run(ctx)
		waiterErr <- err
	}()
	<-second.submitted
	if st := cc.Stats(); st.InflightWaits != 1 {
		t.Fatalf("second calibration did not join the first's evaluation: %+v", st)
	}
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled joined calibration returned %v, want context.Canceled", err)
	}
	select {
	case <-ownerRes:
		t.Fatal("the owner finished before its evaluation was released")
	default:
	}
	owner.release(0, 4, nil)
	if res := <-ownerRes; res == nil || res.Best.Loss != 4 {
		t.Fatalf("owner result %+v, want best loss 4", res)
	}
	if st := cc.Stats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 0 hits, 1 miss, 1 entry", st)
	}
}
