package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// The evaluation engine. Every loss evaluation of a calibration — a
// batch algorithm's Evaluate as much as an asynchronous algorithm's
// Submit/Next — goes through one completion-driven path: a submission
// gets a sequence number, runs (or is served from the resume
// checkpoint), finishes into a buffer, and joins history when the
// algorithm's driver goroutine consumes it. The two front ends differ
// only in their consumption rule: Evaluate consumes its submissions in
// submission order (a barrier), Next consumes in arrival order, NextSeq
// in an order the caller forces. History order is consumption order, so
// every consumption is journaled with its sequence number: given the
// same seed and the same recorded order, a replayed run is
// bitwise-identical to the original —
// proposals are a deterministic function of (seed, history in
// consumption order), and forcing consumption order forces history
// order. A batch run's order is the identity.

// AsyncSimulator is optionally implemented by simulators that can
// deliver completions through a callback instead of blocking a
// goroutine per in-flight evaluation — the distributed plane's
// RemoteEvaluator resolves leases this way. The done callback must be
// invoked exactly once and must be cheap and non-blocking: it runs on
// the simulator's delivery goroutine. The engine uses this path only
// for plain evaluations (no cache, no resilience executor attached);
// otherwise each running evaluation holds a goroutine inside runSim.
type AsyncSimulator interface {
	Simulator
	RunAsync(ctx context.Context, p Point, done func(loss float64, err error))
}

// AsyncCompletion is one finished asynchronous evaluation as consumed
// by the algorithm. Seq is the submission sequence number Submit
// returned; Sample is the recorded evaluation.
type AsyncCompletion struct {
	Seq      int
	Sample   Sample
	CacheHit bool
}

// AsyncPending is an evaluation a journal holds as submitted but not
// consumed: its sequence number and unit position.
type AsyncPending struct {
	Seq  int
	Unit []float64
}

// asyncEval tracks one submission from start to consumption. Records
// are recycled through AsyncRun.free, and the two entry points the
// simulator side needs are bound once per record, so a steady-state
// submission allocates its unit copy and its decoded point only.
type asyncEval struct {
	a         *AsyncRun
	run       func()                        // bound runSync: `go pe.run()` needs no closure
	asyncDone func(loss float64, err error) // bound settleAsync, handed to AsyncSimulator.RunAsync

	ctx     context.Context
	seq     int
	unit    []float64 // the engine's own copy; becomes Sample.Unit
	point   Point
	startAt time.Time
	wait    time.Duration // queued in Evaluate before a slot freed up

	// Set under AsyncRun.mu when the evaluation finishes, read after the
	// record left the pending table.
	done    bool
	sample  Sample
	hit     bool
	dur     time.Duration
	replErr error
}

// AsyncRun is the evaluation engine of one calibration, shared by
// Problem.Evaluate and — obtained from Problem.Async — by asynchronous
// algorithms. Evaluate, Submit and Next/NextSeq are intended to be
// called from the algorithm's single driver goroutine; completions
// arrive from simulator goroutines and are buffered until consumed.
// An evaluation joins history (and advances the budget's completed
// count) at consumption time, so history order always equals
// consumption order — the property replay relies on.
type AsyncRun struct {
	p      *Problem
	notify chan struct{}

	// replayBySeq maps a submission seq to its index in p.replay for a
	// resumed run; replayInflight holds checkpointed in-flight units
	// for bitwise re-proposal verification.
	replayBySeq    map[int]int
	replayInflight map[int][]float64

	// pending minus arrivals is what is running; all of pending counts
	// against the evaluation budget.
	mu       sync.Mutex
	pending  map[int]*asyncEval // submitted, not yet consumed
	arrivals []int              // finished seqs in raw arrival order, unconsumed
	free     []*asyncEval       // recycled records
	nextSeq  int
}

// Async returns the run's evaluation engine for completion-driven use.
// The error is always nil: a resumed checkpoint without a recorded
// completion order replays as the identity order.
func (p *Problem) Async() (*AsyncRun, error) { return p.engine(), nil }

// engine returns the calibration's evaluation engine, creating it on
// first use (tests build Problems directly).
func (p *Problem) engine() *AsyncRun {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.async != nil {
		return p.async
	}
	a := &AsyncRun{
		p:       p,
		notify:  make(chan struct{}, 1),
		pending: make(map[int]*asyncEval),
	}
	if len(p.replayOrder) > 0 {
		a.replayBySeq = make(map[int]int, len(p.replayOrder))
		for i, seq := range p.replayOrder {
			a.replayBySeq[seq] = i
		}
	}
	if len(p.replayInflight) > 0 {
		a.replayInflight = make(map[int][]float64, len(p.replayInflight))
		for _, rec := range p.replayInflight {
			a.replayInflight[rec.Seq] = rec.Unit
		}
	}
	p.async = a
	return a
}

// Workers returns the configured loss-evaluation parallelism —
// asynchronous algorithms size their in-flight window to it.
func (p *Problem) Workers() int { return p.workers }

// ReplayOrder returns the completion order of the resume checkpoint
// (submission sequence numbers in consumption order), or nil for a
// fresh run. Asynchronous algorithms must force-consume completions in
// this order until it is exhausted to reproduce the original run
// bitwise.
func (p *Problem) ReplayOrder() []int { return append([]int(nil), p.replayOrder...) }

// wake makes a blocked driver re-examine state. The channel is buffered
// and the send non-blocking: a single pending token is enough because
// waiters re-check everything under the lock on every wake.
func (a *AsyncRun) wake() {
	select {
	case a.notify <- struct{}{}:
	default:
	}
}

// room returns how many more submissions the evaluation-count budget
// admits. In-flight and finished-but-unconsumed evaluations count
// against it, so a driver can keep the fleet saturated right up to the
// final evaluation without overshooting.
func (a *AsyncRun) room() int {
	p := a.p
	if p.maxEvals <= 0 {
		return math.MaxInt
	}
	p.mu.Lock()
	recorded := p.evals
	p.mu.Unlock()
	return p.maxEvals - recorded - a.InFlight()
}

// waitSlot blocks until fewer than Workers evaluations are running. It
// reports false when ctx expires first: dispatch stops the moment the
// budget context does, so a large batch cannot overrun an expired
// deadline by a batch of stale evaluations. The context is checked again
// under the lock that shows the slot free: a completion records itself
// under that lock, so a cancel that came before the completion freeing
// the slot is always seen, and cannot start one more evaluation.
func (a *AsyncRun) waitSlot(ctx context.Context) bool {
	for ctx.Err() == nil {
		a.mu.Lock()
		free := len(a.pending)-len(a.arrivals) < a.p.workers
		expired := free && ctx.Err() != nil
		a.mu.Unlock()
		if free {
			return !expired
		}
		select {
		case <-a.notify:
		case <-ctx.Done():
		}
	}
	return false
}

// Submit starts one asynchronous evaluation of the given unit-cube
// position and returns its sequence number. It returns
// ErrBudgetExhausted when the evaluation budget (count or deadline) has
// no room for another submission. Submit never blocks on the simulator.
func (a *AsyncRun) Submit(ctx context.Context, unit []float64) (int, error) {
	if ctx.Err() != nil || a.room() <= 0 {
		return 0, ErrBudgetExhausted
	}
	if a.p.obs != nil {
		a.p.obs.BatchProposed(1)
	}
	return a.start(ctx, unit, time.Time{}), nil
}

// start registers one submission and sets it running. queuedAt, when
// set, is when the submission's batch was proposed: the time from there
// to here is the queue wait reported to the observer.
func (a *AsyncRun) start(ctx context.Context, unit []float64, queuedAt time.Time) int {
	p := a.p
	u := append([]float64(nil), unit...)
	if p.journal != nil {
		p.journal.submitted(a.nextSeq, u) // nextSeq only moves on this goroutine
	}
	a.mu.Lock()
	var pe *asyncEval
	if n := len(a.free); n > 0 {
		pe, a.free = a.free[n-1], a.free[:n-1]
	} else {
		pe = &asyncEval{a: a}
		pe.run, pe.asyncDone = pe.runSync, pe.settleAsync
	}
	seq := a.nextSeq
	a.nextSeq++
	pe.ctx, pe.seq, pe.unit = ctx, seq, u
	a.pending[seq] = pe
	if a.serveFromCheckpoint(pe) {
		pe.done = true
		a.arrivals = append(a.arrivals, seq)
		a.mu.Unlock()
		return seq
	}
	a.mu.Unlock()
	pe.point = p.Space.Decode(pe.unit)
	pe.startAt = p.clock()
	if !queuedAt.IsZero() {
		pe.wait = pe.startAt.Sub(queuedAt)
	}
	if as, ok := p.sim.(AsyncSimulator); ok && p.cache == nil && p.exec == nil {
		// Callback delivery: no goroutine parked per in-flight lease.
		as.RunAsync(ctx, pe.point, pe.asyncDone)
	} else {
		go pe.run()
	}
	return seq
}

// serveFromCheckpoint answers a submission the resume checkpoint
// already covers, without touching the simulator: a consumed sample is
// served as recorded (its point decoded from the verified unit), and
// both it and a checkpointed in-flight unit are
// verified bitwise against what the deterministic algorithm re-proposed
// — a mismatch means the checkpoint belongs to a different
// configuration and fails loudly at consumption. It reports false for a
// submission that has to run (a verified in-flight one included).
// Called with a.mu held.
func (a *AsyncRun) serveFromCheckpoint(pe *asyncEval) bool {
	if idx, consumed := a.replayBySeq[pe.seq]; consumed {
		r := a.p.replay[idx]
		if unitsEqual(r.Unit, pe.unit) {
			pe.sample = Sample{Unit: pe.unit, Point: a.p.Space.Decode(pe.unit), Loss: r.Loss, Elapsed: r.Elapsed}
		} else {
			pe.replErr = fmt.Errorf(
				"core: checkpoint diverged at evaluation %d (submission %d): stored unit %v, algorithm proposed %v",
				idx, pe.seq, r.Unit, pe.unit)
		}
		return true
	}
	if want, ok := a.replayInflight[pe.seq]; ok && !unitsEqual(want, pe.unit) {
		pe.replErr = fmt.Errorf(
			"core: checkpoint diverged at in-flight submission %d: stored unit %v, algorithm proposed %v",
			pe.seq, want, pe.unit)
		return true
	}
	return false
}

// runSync is the goroutine body of an evaluation on a blocking
// simulator (or behind the cache / resilience executor).
func (pe *asyncEval) runSync() {
	pe.settle(pe.a.p.runSim(pe.ctx, pe.unit, pe.point))
}

// settleAsync is the completion callback handed to an AsyncSimulator.
func (pe *asyncEval) settleAsync(loss float64, err error) { pe.settle(loss, false, err) }

// settle records a raw completion. An evaluation aborted by budget
// expiry mid-run is not a simulator failure: it releases its budget
// slot and is never surfaced — no phantom +Inf sample. Failed, NaN and
// -Inf losses all normalize to +Inf: NaN would poison best-loss
// comparisons (NaN < x is always false) and -Inf would win them
// unconditionally.
func (pe *asyncEval) settle(loss float64, hit bool, err error) {
	a := pe.a
	p := a.p
	if err != nil && pe.ctx.Err() != nil {
		a.mu.Lock()
		delete(a.pending, pe.seq)
		a.recycle(pe)
		a.mu.Unlock()
		a.wake()
		return
	}
	if err != nil || math.IsNaN(loss) || math.IsInf(loss, -1) {
		loss = math.Inf(1)
	}
	now := p.clock()
	a.mu.Lock()
	pe.done = true
	pe.sample = Sample{Unit: pe.unit, Point: pe.point, Loss: loss, Elapsed: now.Sub(p.start)}
	pe.hit = hit
	pe.dur = now.Sub(pe.startAt)
	a.arrivals = append(a.arrivals, pe.seq)
	a.mu.Unlock()
	a.wake()
}

// recycle returns a record that left the pending table to the free
// list. Called with a.mu held.
func (a *AsyncRun) recycle(pe *asyncEval) {
	*pe = asyncEval{a: a, run: pe.run, asyncDone: pe.asyncDone}
	a.free = append(a.free, pe)
}

// InFlight returns the number of submissions not yet consumed
// (running or buffered awaiting Next).
func (a *AsyncRun) InFlight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// unbuffer removes arrival i and its pending entry. Called with a.mu
// held. The arrivals slice is compacted in place (it is never longer
// than the in-flight window) so it does not creep through its backing
// array.
func (a *AsyncRun) unbuffer(i int) *asyncEval {
	seq := a.arrivals[i]
	a.arrivals = append(a.arrivals[:i], a.arrivals[i+1:]...)
	pe := a.pending[seq]
	delete(a.pending, seq)
	return pe
}

// take blocks until the submission with the given sequence number has
// finished and removes it from the engine. It returns nil at once when
// seq is not pending: never submitted, already consumed, or aborted by
// budget expiry. In-flight work always settles (finish or abort), so
// the wait terminates.
func (a *AsyncRun) take(seq int) *asyncEval {
	for {
		a.mu.Lock()
		pe, ok := a.pending[seq]
		if !ok {
			a.mu.Unlock()
			return nil
		}
		if pe.done {
			for i, s := range a.arrivals {
				if s == seq {
					a.unbuffer(i)
					break
				}
			}
			a.mu.Unlock()
			return pe
		}
		a.mu.Unlock()
		<-a.notify
	}
}

// Next blocks until any submitted evaluation finishes, consumes it
// (appending it to history and advancing the evaluation count), and
// returns it. Buffered completions are consumed in arrival order. It
// returns ErrBudgetExhausted when nothing is in flight and nothing is
// buffered — the budget-gated Submit refused a refill, so no further
// completion can ever arrive.
func (a *AsyncRun) Next(ctx context.Context) (AsyncCompletion, error) {
	for {
		a.mu.Lock()
		if len(a.arrivals) > 0 {
			pe := a.unbuffer(0)
			a.mu.Unlock()
			return a.consumeAtBoundary(pe)
		}
		running := len(a.pending)
		a.mu.Unlock()
		if running == 0 {
			return AsyncCompletion{}, ErrBudgetExhausted
		}
		<-a.notify
	}
}

// NextSeq blocks until the submission with the given sequence number
// finishes, consumes it, and returns it — the replay counterpart of
// Next. Out-of-order finishes stay buffered until their turn. A seq
// that was never submitted, or was already consumed, is a corrupt
// replay order and fails loudly (unless the budget context expired, in
// which case the aborted evaluation simply ends the run).
func (a *AsyncRun) NextSeq(ctx context.Context, seq int) (AsyncCompletion, error) {
	pe := a.take(seq)
	switch {
	case pe != nil:
		return a.consumeAtBoundary(pe)
	case ctx.Err() != nil:
		return AsyncCompletion{}, ErrBudgetExhausted
	case seq < 0 || seq >= a.nextSeq: // nextSeq only moves on this goroutine
		return AsyncCompletion{}, fmt.Errorf(
			"core: replay order references submission %d, which was never submitted", seq)
	}
	return AsyncCompletion{}, fmt.Errorf(
		"core: replay order references submission %d twice", seq)
}

// consumeAtBoundary is consume for the front ends where every
// consumption is a journal sync boundary (Evaluate's boundary is the
// batch).
func (a *AsyncRun) consumeAtBoundary(pe *asyncEval) (AsyncCompletion, error) {
	c, err := a.consume(pe)
	if err == nil {
		a.p.syncJournal()
	}
	return c, err
}

// consume records one finished evaluation, already taken out of the
// pending table, into history and the journal, and fires the observer
// sequence EvalCompleted, CacheHit, IncumbentImproved. Consumption
// happens on the algorithm's driver goroutine, so order and history
// stay index-aligned.
func (a *AsyncRun) consume(pe *asyncEval) (AsyncCompletion, error) {
	if pe.replErr != nil {
		return AsyncCompletion{}, pe.replErr
	}
	p := a.p
	c := AsyncCompletion{Seq: pe.seq, Sample: pe.sample, CacheHit: pe.hit}
	wait, dur := pe.wait, pe.dur
	improved := p.record(c.Sample)
	if p.journal != nil {
		p.journal.consumed(c.Seq, c.Sample)
	}
	a.mu.Lock()
	a.recycle(pe)
	a.mu.Unlock()
	if p.obs != nil {
		p.obs.EvalCompleted(c.Sample, wait, dur)
		if c.CacheHit {
			if co, ok := p.obs.(CacheObserver); ok {
				co.CacheHit(c.Sample)
			}
		}
		if improved {
			p.obs.IncumbentImproved(c.Sample)
		}
	}
	return c, nil
}
