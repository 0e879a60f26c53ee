package core

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/cache"
	"simcal/internal/obs"
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

// TestTraceReplayWithCacheHits: a cached run's trace must still replay
// bit-exactly — cache hits emit normal eval_completed events (original
// loss, own elapsed time) plus a cache_hit marker.
func TestTraceReplayWithCacheHits(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	cc := cache.New(nil)
	mk := func(obsv Observer) *Result {
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
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mk(nil) // warm the cache so the traced run has hits
	res := mk(NewObsObserver(obs.NewRegistry(), tracer))
	if st := cc.Stats(); st.Hits == 0 {
		t.Fatalf("no cache hits in traced run: %+v", st)
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
	pts, err := obs.ReplayConvergenceRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	times, losses := res.LossOverTime()
	if len(pts) != len(times) {
		t.Fatalf("replay has %d points, result has %d", len(pts), len(times))
	}
	for i := range pts {
		if pts[i].Loss != losses[i] || pts[i].Elapsed != times[i] {
			t.Fatalf("replay diverges at %d", i)
		}
	}
}
