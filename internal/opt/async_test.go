package opt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
)

// jitterSim wraps an evaluator with a per-call pseudo-random sleep, so
// completions land out of submission order and the async driver's
// arrival order is genuinely scrambled. The sleep source is independent
// of the calibration RNG: timing must never feed the search.
func jitterSim(inner core.Evaluator, seed int64, max time.Duration) core.Evaluator {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(ctx context.Context, p core.Point) (float64, error) {
		mu.Lock()
		d := time.Duration(rng.Int63n(int64(max)))
		mu.Unlock()
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		return inner(ctx, p)
	}
}

// TestAsyncBOFantasyRowsNeverLeak: constant-liar imputations are
// surrogate-internal. The run's history, its journal, and the result
// must contain only real simulator losses — every recorded loss
// re-evaluates to itself.
func TestAsyncBOFantasyRowsNeverLeak(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	alg := NewAsyncBO()
	alg.InitSamples = 6
	c := &core.Calibrator{
		Space:          optSpace,
		Simulator:      jitterSim(sphere, 5, time.Millisecond),
		Algorithm:      alg,
		MaxEvaluations: 30,
		Workers:        4,
		Seed:           33,
		Checkpoint:     path,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	check := func(where string, s core.Sample) {
		t.Helper()
		real, err := sphere(context.Background(), s.Point)
		if err != nil {
			t.Fatal(err)
		}
		if s.Loss != real {
			t.Errorf("%s: stored loss %v, re-evaluation gives %v — an imputed value leaked", where, s.Loss, real)
		}
	}
	for i, s := range res.History {
		check(fmt.Sprintf("history[%d]", i), s)
	}
	check("best", res.Best)
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The journal keeps units only: its consumptions are checked at the
	// point their submission's unit decodes to.
	units := map[int][]float64{}
	consumed := 0
	for _, line := range bytes.Split(journal, []byte("\n"))[1:] {
		var r struct {
			Submit, Consume *int
			Unit            []float64
			Loss            obs.Float
		}
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("journal line %s: %v", line, err)
		}
		if r.Submit != nil {
			units[*r.Submit] = r.Unit
			continue
		}
		consumed++
		check("journal", core.Sample{Point: optSpace.Decode(units[*r.Consume]), Loss: float64(r.Loss)})
	}
	if consumed == 0 {
		t.Fatal("journal recorded no samples")
	}
}

// TestAsyncBOBudgetExact: the async driver spends exactly the
// evaluation budget — in-flight gating must neither overrun nor strand
// the final evaluations.
func TestAsyncBOBudgetExact(t *testing.T) {
	res := calibrate(t, NewAsyncBO(), sphere, 60, 41)
	if res.Evaluations != 60 {
		t.Errorf("async-bo used %d evaluations, want exactly 60", res.Evaluations)
	}
}

// TestAsyncBOFindsSphereMinimum: quality guard — asynchronous proposals
// with constant-liar conditioning must still home in on the optimum.
func TestAsyncBOFindsSphereMinimum(t *testing.T) {
	res := calibrate(t, NewAsyncBO(), sphere, 120, 43)
	if res.Best.Loss > 0.5 {
		t.Errorf("async-bo best loss = %v after 120 evals, want < 0.5", res.Best.Loss)
	}
}

// TestAsyncBOHandlesFailingSimulator: all-+Inf losses degrade to random
// exploration without stalling the driver loop.
func TestAsyncBOHandlesFailingSimulator(t *testing.T) {
	allInf := func(_ context.Context, _ core.Point) (float64, error) {
		return math.Inf(1), nil
	}
	res := calibrate(t, NewAsyncBO(), allInf, 40, 47)
	if res.Evaluations != 40 {
		t.Errorf("async-bo spent %d evaluations on all-+Inf losses, want 40", res.Evaluations)
	}
}

// asyncMetricsObserver captures the AsyncObserver stream for assertions.
type asyncMetricsObserver struct {
	mu          sync.Mutex
	proposals   int
	fantasies   int
	retractions int
	consumed    []int // seq stream in consumption order
	indices     []int
}

func (o *asyncMetricsObserver) CalibrationStarted(core.RunInfo)                         {}
func (o *asyncMetricsObserver) BatchProposed(int)                                       {}
func (o *asyncMetricsObserver) EvalCompleted(core.Sample, time.Duration, time.Duration) {}
func (o *asyncMetricsObserver) IncumbentImproved(core.Sample)                           {}
func (o *asyncMetricsObserver) SurrogateFitted(int, time.Duration)                      {}
func (o *asyncMetricsObserver) AcquisitionSolved(int, time.Duration, time.Duration)     {}
func (o *asyncMetricsObserver) CalibrationFinished(*core.Result)                        {}

func (o *asyncMetricsObserver) AsyncProposed(seq, fantasies int, idle time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.proposals++
	o.fantasies += fantasies
}

func (o *asyncMetricsObserver) AsyncCompletionConsumed(seq, index int, loss float64, retracted bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.consumed = append(o.consumed, seq)
	o.indices = append(o.indices, index)
	if retracted {
		o.retractions++
	}
}

// TestAsyncBOObserverStream: one AsyncProposed per evaluation, indices
// contiguous in consumption order, fantasy rows conditioned and later
// retracted once the surrogate phase begins.
func TestAsyncBOObserverStream(t *testing.T) {
	obs := &asyncMetricsObserver{}
	alg := NewAsyncBO()
	alg.InitSamples = 8
	c := &core.Calibrator{
		Space:          optSpace,
		Simulator:      jitterSim(sphere, 9, time.Millisecond),
		Algorithm:      alg,
		MaxEvaluations: 48,
		Workers:        4,
		Seed:           51,
		Observer:       obs,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if obs.proposals != res.Evaluations {
		t.Errorf("AsyncProposed fired %d times for %d evaluations", obs.proposals, res.Evaluations)
	}
	if len(obs.consumed) != res.Evaluations {
		t.Errorf("AsyncCompletionConsumed fired %d times for %d evaluations", len(obs.consumed), res.Evaluations)
	}
	for i, idx := range obs.indices {
		if idx != i {
			t.Fatalf("consumption index %d reported as %d, want contiguous", i, idx)
		}
	}
	// With 4 in flight and 40 surrogate-phase proposals, fits condition
	// on liar rows and the corresponding completions retract them.
	if obs.fantasies == 0 {
		t.Error("no constant-liar fantasy rows were conditioned on in 40 surrogate-phase proposals")
	}
	if obs.retractions == 0 {
		t.Error("no fantasy rows were retracted despite fantasy-conditioned fits")
	}
	if order := alg.CompletionOrder(); len(order) != len(obs.consumed) {
		t.Fatalf("CompletionOrder has %d entries, observer saw %d", len(order), len(obs.consumed))
	} else {
		for i := range order {
			if order[i] != obs.consumed[i] {
				t.Fatalf("CompletionOrder[%d] = %d, observer saw %d", i, order[i], obs.consumed[i])
			}
		}
	}
}

// TestByNameAsyncBO: the registry resolves async-bo, and unknown names
// list the registered vocabulary sorted — so the error is directly
// actionable.
func TestByNameAsyncBO(t *testing.T) {
	alg, err := ByName("async-bo")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := alg.(*AsyncBayesOpt); !ok {
		t.Fatalf("ByName(async-bo) = %T, want *AsyncBayesOpt", alg)
	}
	if alg.Name() != "async-bo" {
		t.Errorf("Name() = %q", alg.Name())
	}

	_, err = ByName("nope")
	if err == nil {
		t.Fatal("ByName accepted an unknown algorithm")
	}
	msg := err.Error()
	sorted := sortedAlgorithmNames()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatalf("sortedAlgorithmNames not sorted: %v", sorted)
		}
	}
	want := strings.Join(sorted, ", ")
	if !strings.Contains(msg, want) {
		t.Errorf("unknown-algorithm error %q does not list the sorted registry %q", msg, want)
	}
	for _, name := range AlgorithmNames {
		if _, err := ByName(name); err != nil {
			t.Errorf("AlgorithmNames lists %q but ByName rejects it: %v", name, err)
		}
	}
	if !strings.Contains(AlgorithmUsage(), "async-bo") {
		t.Errorf("AlgorithmUsage() = %q does not mention async-bo", AlgorithmUsage())
	}
}
