package core

import (
	"context"
	"errors"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// seqSleepSim completes evaluations in an order unrelated to submission
// order: the loss encodes the position, and each evaluation sleeps a
// duration chosen from the point itself, so a driver consuming with
// Next observes a scrambled arrival order.
func seqSleepSim(sleep func(p Point) time.Duration) Evaluator {
	return func(ctx context.Context, p Point) (float64, error) {
		if sleep != nil {
			select {
			case <-time.After(sleep(p)):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		return p["x"]*1e3 + p["y"], nil
	}
}

// asyncRandom is the in-package asynchronous counterpart of
// randomSearch: keep `width` evaluations in flight, consume completions
// as they land, propose the next position from the shared RNG. Proposals
// depend only on the RNG stream (not on history), so two runs with the
// same seed submit identical units in identical order regardless of
// completion timing — which makes forced-order replay the only thing
// history order can depend on.
type asyncRandom struct {
	width     int
	stopAfter int   // return nil after consuming this many (0 = run to budget)
	forced    []int // consume in this seq order first (replay)

	gotOrder  []int
	gotLosses []float64
}

func (a *asyncRandom) Name() string { return "test-async-random" }

func (a *asyncRandom) Optimize(ctx context.Context, prob *Problem) error {
	run := prob.Async()
	width := a.width
	if width <= 0 {
		width = prob.Workers()
	}
	forced := a.forced
	if forced == nil {
		forced = prob.ReplayOrder()
	}
	consumed := 0
	for {
		for run.InFlight() < width {
			if _, err := run.Submit(ctx, prob.Space.Sample(prob.RNG)); err != nil {
				if errors.Is(err, ErrBudgetExhausted) {
					break
				}
				return err
			}
		}
		var c AsyncCompletion
		var err error
		if consumed < len(forced) {
			c, err = run.NextSeq(ctx, forced[consumed])
		} else {
			c, err = run.Next(ctx)
		}
		if errors.Is(err, ErrBudgetExhausted) {
			return nil
		}
		if err != nil {
			return err
		}
		consumed++
		a.gotOrder = append(a.gotOrder, c.Seq)
		a.gotLosses = append(a.gotLosses, c.Sample.Loss)
		if a.stopAfter > 0 && consumed >= a.stopAfter {
			return nil
		}
	}
}

// TestAsyncHistoryMatchesConsumptionOrder: completions consumed out of
// submission order must join history in consumption order — the
// property the replay contract is built on — and the budget must gate
// Submit exactly at MaxEvaluations.
func TestAsyncHistoryMatchesConsumptionOrder(t *testing.T) {
	// Sleep longer for lower x: early submissions tend to land last, so
	// the arrival order is (probabilistically) scrambled. The assertions
	// below hold for any arrival order.
	sim := seqSleepSim(func(p Point) time.Duration {
		return time.Duration((10-p["x"])*float64(time.Millisecond)) / 2
	})
	alg := &asyncRandom{width: 4}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      alg,
		MaxEvaluations: 24,
		Workers:        4,
		Seed:           7,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 24 || len(res.History) != 24 {
		t.Fatalf("got %d evaluations, history %d, want 24", res.Evaluations, len(res.History))
	}
	if len(alg.gotOrder) != 24 {
		t.Fatalf("algorithm consumed %d completions, want 24", len(alg.gotOrder))
	}
	// History row i is the completion the algorithm consumed i-th.
	for i, loss := range alg.gotLosses {
		if res.History[i].Loss != loss {
			t.Fatalf("history[%d].Loss = %v, consumption %d saw %v: history is not in consumption order",
				i, res.History[i].Loss, i, loss)
		}
	}
	// Each seq consumed exactly once, and all 24 seqs are covered.
	seen := make(map[int]bool, 24)
	for _, s := range alg.gotOrder {
		if s < 0 || s >= 24 || seen[s] {
			t.Fatalf("consumption order %v is not a permutation of 0..23", alg.gotOrder)
		}
		seen[s] = true
	}
}

// TestAsyncSubmitBudgetGate: in-flight submissions count against the
// budget, so Submit refuses the (N+1)-th submission even while earlier
// ones are still running, and Next reports exhaustion only after every
// accepted submission has been consumed.
func TestAsyncSubmitBudgetGate(t *testing.T) {
	release := make(chan struct{})
	sim := Evaluator(func(ctx context.Context, p Point) (float64, error) {
		<-release
		return p["x"], nil
	})
	probe := &probeAsync{fn: func(ctx context.Context, prob *Problem) error {
		run := prob.Async()
		for i := 0; i < 5; i++ {
			if _, err := run.Submit(ctx, prob.Space.Sample(prob.RNG)); err != nil {
				return err
			}
		}
		if _, err := run.Submit(ctx, prob.Space.Sample(prob.RNG)); !errors.Is(err, ErrBudgetExhausted) {
			t.Errorf("6th Submit with budget 5 returned %v, want ErrBudgetExhausted", err)
		}
		close(release)
		for i := 0; i < 5; i++ {
			if _, err := run.Next(ctx); err != nil {
				return err
			}
		}
		if _, err := run.Next(ctx); !errors.Is(err, ErrBudgetExhausted) {
			t.Errorf("Next after all completions consumed returned %v, want ErrBudgetExhausted", err)
		}
		return nil
	}}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      probe,
		MaxEvaluations: 5,
		Workers:        4,
		Seed:           3,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// probeAsync mirrors opt's probeAlg: run a closure as an Algorithm.
type probeAsync struct {
	fn func(ctx context.Context, prob *Problem) error
}

func (p *probeAsync) Name() string { return "test-async-random" }
func (p *probeAsync) Optimize(ctx context.Context, prob *Problem) error {
	return p.fn(ctx, prob)
}

// TestAsyncForcedReplayBitwise: a second run with the same seed that
// force-consumes the first run's recorded completion order produces a
// bitwise-identical result, even though its own completion timing is
// random.
func TestAsyncForcedReplayBitwise(t *testing.T) {
	clock := frozenClock()
	run := func(forced []int) (*Result, []int) {
		alg := &asyncRandom{width: 4, forced: forced}
		c := &Calibrator{
			Space:          testSpace,
			Simulator:      seqSleepSim(func(p Point) time.Duration { return time.Duration(p["y"]) * time.Millisecond / 2 }),
			Algorithm:      alg,
			MaxEvaluations: 32,
			Workers:        4,
			Seed:           11,
			Clock:          clock,
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, alg.gotOrder
	}
	ref, order := run(nil)
	rep, order2 := run(order)
	if len(order2) != len(order) {
		t.Fatalf("replay consumed %d completions, original %d", len(order2), len(order))
	}
	for i := range order {
		if order[i] != order2[i] {
			t.Fatalf("replay order diverged at %d: %d vs %d", i, order2[i], order[i])
		}
	}
	if err := CheckIdentical(rep, ref); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCheckpointResume: a journal cut mid-run holds the
// consumption order and the in-flight submissions; resuming replays
// consumed evaluations from it (simulator untouched), re-proposes the
// in-flight ones bitwise, and runs them for real.
func TestAsyncCheckpointResume(t *testing.T) {
	clock := frozenClock()
	path := filepath.Join(t.TempDir(), "ck.jsonl")

	// Original run: width 4, stop right after the 8th consumption, with
	// 3 submissions in flight.
	orig := &asyncRandom{width: 4, stopAfter: 8}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      seqSleepSim(nil),
		Algorithm:      orig,
		MaxEvaluations: 40,
		Workers:        4,
		Seed:           21,
		Clock:          clock,
		Checkpoint:     path,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := loadJournal(t, path)
	if len(snap.samples) != 8 || len(snap.order) != 8 {
		t.Fatalf("journal has %d evaluations, %d order entries, want 8/8", len(snap.samples), len(snap.order))
	}
	if len(snap.inFlight) == 0 {
		t.Fatalf("journal records no in-flight submissions; width 4 with one consumed leaves 3")
	}

	// Resume to the full budget. The replayed prefix must not touch the
	// simulator; in-flight re-proposals are verified bitwise and then
	// evaluated for real.
	sim := &countingSim{inner: seqSleepSim(nil)}
	resumed := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      &asyncRandom{width: 4},
		MaxEvaluations: 40,
		Workers:        4,
		Seed:           21,
		Clock:          clock,
		Checkpoint:     path,
		Resume:         true,
	}
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 40 {
		t.Fatalf("resumed run completed %d evaluations, want 40", res.Evaluations)
	}
	if got := sim.calls.Load(); got != 40-8 {
		t.Errorf("resumed run invoked the simulator %d times, want %d (replayed prefix must come from the snapshot)", got, 40-8)
	}
	// The replayed prefix is bitwise the snapshot's samples.
	for i, want := range snap.samples {
		got := res.History[i]
		if got.Loss != want.Loss {
			t.Fatalf("history[%d].Loss = %v, snapshot %v", i, got.Loss, want.Loss)
		}
		for j := range want.Unit {
			if got.Unit[j] != want.Unit[j] {
				t.Fatalf("history[%d].Unit[%d] = %v, snapshot %v (not bitwise)", i, j, got.Unit[j], want.Unit[j])
			}
		}
	}
}

// TestAsyncResumeDivergenceDetected: a tampered snapshot — consumed
// sample or in-flight unit not matching what the deterministic
// algorithm re-proposes — must fail loudly, not silently corrupt the
// search.
func TestAsyncResumeDivergenceDetected(t *testing.T) {
	clock := frozenClock()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	orig := &asyncRandom{width: 4, stopAfter: 8}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      seqSleepSim(nil),
		Algorithm:      orig,
		MaxEvaluations: 40,
		Workers:        4,
		Seed:           23,
		Clock:          clock,
		Checkpoint:     path,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	resume := func(mutate func(*journalFixture)) error {
		snap := loadJournal(t, path)
		mutate(snap)
		tampered := filepath.Join(t.TempDir(), "tampered.jsonl")
		writeJournal(t, tampered, snap)
		r := &Calibrator{
			Space:          testSpace,
			Simulator:      seqSleepSim(nil),
			Algorithm:      &asyncRandom{width: 4},
			MaxEvaluations: 40,
			Workers:        4,
			Seed:           23,
			Clock:          clock,
			Checkpoint:     tampered,
			Resume:         true,
		}
		_, err := r.Run(context.Background())
		return err
	}

	if err := resume(func(snap *journalFixture) { snap.samples[3].Unit[0] += 0.25 }); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Errorf("tampered consumed sample: err = %v, want divergence error", err)
	}
	if err := resume(func(snap *journalFixture) {
		if len(snap.inFlight) == 0 {
			t.Fatal("no in-flight entries to tamper with")
		}
		snap.inFlight[slices.Min(slices.Collect(maps.Keys(snap.inFlight)))][0] += 0.25
	}); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Errorf("tampered in-flight unit: err = %v, want divergence error", err)
	}
}

// TestOrderlessSnapshotReplaysAsIdentity: the journal of a run that
// consumed in submission order replays as the identity order, through
// Evaluate and through Submit/NextSeq alike, from the journal and not
// from the simulator, and a tampered unit still fails loudly on both.
func TestOrderlessSnapshotReplaysAsIdentity(t *testing.T) {
	build := func() *journalFixture {
		return &journalFixture{
			alg:   "test-async-random",
			seed:  42,
			space: []string{"x", "y"},
			samples: []Sample{
				{Unit: []float64{0.25, 0.5}, Loss: 1},
				{Unit: []float64{0.5, 0.25}, Loss: 2},
			},
		}
	}
	s, err := readJournal([]byte(journalText(build())))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.order, []int{0, 1}) {
		t.Fatalf("order-less file read back with order %v, want the identity [0 1]", s.order)
	}

	fresh := []float64{0.75, 0.75}
	viaEvaluate := func(ctx context.Context, prob *Problem, snap *journalFixture) ([]Sample, error) {
		return prob.Evaluate(ctx, [][]float64{snap.samples[0].Unit, snap.samples[1].Unit, fresh})
	}
	viaSubmit := func(ctx context.Context, prob *Problem, snap *journalFixture) ([]Sample, error) {
		run := prob.Async()
		if got := prob.ReplayOrder(); !slices.Equal(got, []int{0, 1}) {
			t.Errorf("ReplayOrder() = %v, want the identity [0 1]", got)
		}
		var out []Sample
		for _, u := range [][]float64{snap.samples[0].Unit, snap.samples[1].Unit, fresh} {
			if _, err := run.Submit(ctx, u); err != nil {
				return nil, err
			}
		}
		for seq := 0; seq < 3; seq++ {
			c, err := run.NextSeq(ctx, seq)
			if err != nil {
				return nil, err
			}
			out = append(out, c.Sample)
		}
		return out, nil
	}
	drivers := map[string]func(context.Context, *Problem, *journalFixture) ([]Sample, error){
		"Evaluate": viaEvaluate, "SubmitNextSeq": viaSubmit,
	}
	resumed := func(t *testing.T, snap *journalFixture, sim Simulator, alg Algorithm) (*Result, error) {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		writeJournal(t, path, snap)
		c := &Calibrator{
			Space:          testSpace,
			Simulator:      sim,
			Algorithm:      alg,
			MaxEvaluations: 3,
			Workers:        2,
			Seed:           42,
			Checkpoint:     path,
			Resume:         true,
		}
		return c.Run(context.Background())
	}
	for dname, drive := range drivers {
		t.Run(dname+"/from-file", func(t *testing.T) {
			snap := build()
			sim := &countingSim{inner: seqSleepSim(nil)}
			var got []Sample
			res, err := resumed(t, snap, sim, &probeAsync{fn: func(ctx context.Context, prob *Problem) (err error) {
				got, err = drive(ctx, prob, snap)
				return err
			}})
			if err != nil {
				t.Fatal(err)
			}
			if n := sim.calls.Load(); n != 1 {
				t.Errorf("simulator ran %d times, want 1 (two of three evaluations come from the journal)", n)
			}
			if len(got) != 3 || len(res.History) != 3 {
				t.Fatalf("got %d samples, history %d, want 3", len(got), len(res.History))
			}
			for i, want := range snap.samples {
				if math.Float64bits(got[i].Loss) != math.Float64bits(want.Loss) ||
					math.Float64bits(res.History[i].Loss) != math.Float64bits(want.Loss) {
					t.Errorf("sample %d: loss %v (history %v), journal %v", i, got[i].Loss, res.History[i].Loss, want.Loss)
				}
			}
		})
		t.Run(dname+"/tampered", func(t *testing.T) {
			snap := build()
			snap.samples[1].Unit[0] += 0.125
			proposed := build() // what the deterministic algorithm re-proposes
			_, err := resumed(t, snap, seqSleepSim(nil), &probeAsync{fn: func(ctx context.Context, prob *Problem) error {
				_, err := drive(ctx, prob, proposed)
				return err
			}})
			if err == nil || !strings.Contains(err.Error(), "diverged") {
				t.Errorf("tampered journal: err = %v, want a divergence error", err)
			}
		})
	}
}

// TestAsyncNextSeqRejectsCorruptOrder: a replay order naming a
// submission that never existed, or naming one twice, is a corrupt
// trace and must fail loudly.
func TestAsyncNextSeqRejectsCorruptOrder(t *testing.T) {
	probe := &probeAsync{fn: func(ctx context.Context, prob *Problem) error {
		run := prob.Async()
		seq, err := run.Submit(ctx, prob.Space.Sample(prob.RNG))
		if err != nil {
			return err
		}
		if _, err := run.NextSeq(ctx, 99); err == nil || !strings.Contains(err.Error(), "never submitted") {
			t.Errorf("NextSeq(99): err = %v, want never-submitted error", err)
		}
		if _, err := run.NextSeq(ctx, seq); err != nil {
			return err
		}
		if _, err := run.NextSeq(ctx, seq); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Errorf("NextSeq(consumed): err = %v, want consumed-twice error", err)
		}
		return nil
	}}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      seqSleepSim(nil),
		Algorithm:      probe,
		MaxEvaluations: 4,
		Workers:        2,
		Seed:           5,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncFailuresNormalizeToInf: errors, NaN and -Inf losses from the
// simulator normalize to +Inf exactly like the batch path, so failed
// asynchronous evaluations lose incumbent comparisons instead of
// winning them.
func TestAsyncFailuresNormalizeToInf(t *testing.T) {
	var n atomic.Int64
	sim := Evaluator(func(ctx context.Context, p Point) (float64, error) {
		switch n.Add(1) {
		case 1:
			return 0, errors.New("boom")
		case 2:
			return math.NaN(), nil
		case 3:
			return math.Inf(-1), nil
		}
		return 1.5, nil
	})
	alg := &asyncRandom{width: 1}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      alg,
		MaxEvaluations: 4,
		Workers:        1,
		Seed:           9,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !math.IsInf(res.History[i].Loss, 1) {
			t.Errorf("history[%d].Loss = %v, want +Inf", i, res.History[i].Loss)
		}
	}
	if res.Best.Loss != 1.5 {
		t.Errorf("best loss = %v, want the one real evaluation (1.5)", res.Best.Loss)
	}
}

// TestCheckpointAsyncRoundTripBitwise: the consumption order and the
// in-flight submissions a journal holds read back bitwise.
func TestCheckpointAsyncRoundTripBitwise(t *testing.T) {
	ck := sampleJournal()
	ck.order = []int{2, 0, 1}
	ck.inFlight = map[int][]float64{
		3: {0.9876543210987654, 0.25},
		5: {1.0 / 7.0, 0.125},
	}
	s, err := readJournal([]byte(journalText(ck)))
	if err != nil {
		t.Fatal(err)
	}
	got := fixtureOf(s)
	if !slices.Equal(got.order, []int{2, 0, 1}) {
		t.Errorf("order round trip: %v", got.order)
	}
	if len(got.inFlight) != 2 {
		t.Fatalf("inflight round trip: %v", got.inFlight)
	}
	for seq, want := range ck.inFlight {
		if len(got.inFlight[seq]) != len(want) {
			t.Fatalf("inflight[%d] = %v, want %v", seq, got.inFlight[seq], want)
		}
		for j := range want {
			if got.inFlight[seq][j] != want[j] {
				t.Errorf("inflight[%d].Unit[%d] = %v, want %v (not bitwise)", seq, j, got.inFlight[seq][j], want[j])
			}
		}
	}
}

func TestReadCheckpointRejectsCorruptAsyncDocuments(t *testing.T) {
	ck := sampleJournal()
	ck.order = []int{2, 0, 1}
	ck.inFlight = map[int][]float64{3: {0.5, 0.5}}
	valid := journalText(ck)
	// Each bad line goes before the last one, where it cannot pass for a
	// torn tail.
	before := func(bad string) string {
		lines := strings.SplitAfter(strings.TrimSuffix(valid, "\n"), "\n")
		return strings.Join(lines[:len(lines)-1], "") + bad + "\n" + lines[len(lines)-1] + "\n"
	}
	cases := []struct {
		name string
		doc  string
	}{
		{"order longer than samples", before(`{"consume":7,"loss":1,"elapsedNanos":0}`)},
		{"duplicate seq in order", before(`{"consume":2,"loss":1,"elapsedNanos":0}`)},
		{"negative seq in order", before(`{"consume":-1,"loss":1,"elapsedNanos":0}`)},
		{"negative submission seq", before(`{"submit":-1,"unit":[0.5,0.5]}`)},
		{"inflight seq collides with order", before(`{"submit":2,"unit":[0.5,0.5]}`)},
		{"inflight wrong dimension", before(`{"submit":4,"unit":[0.5]}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := readJournal([]byte(tc.doc)); err == nil {
				t.Errorf("the journal index accepted a journal with %s", tc.name)
			}
		})
	}
}
