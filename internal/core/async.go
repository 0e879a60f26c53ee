package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"simcal/internal/cache"
	"simcal/internal/resilience"
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
// the simulator's delivery goroutine. The engine always uses this path
// when the simulator has it: each attempt of an evaluation, retries
// included, is one RunAsync call. Under a resilience policy's timeout
// the attempt's context carries its deadline, and a callback that
// arrives after the engine abandoned the attempt is dropped.
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

// asyncEval tracks one submission from start to consumption. Records
// are recycled through AsyncRun.free, and the entry points the
// simulator side (and, with a cache, the cache; with a resilience
// policy, its attempt deadlines and backoffs) needs are bound once per
// record, so a steady-state uncached submission allocates its unit copy
// and its decoded point only, and no attempt or retry allocates a
// closure.
type asyncEval struct {
	hooks
	a *AsyncRun

	ctx     context.Context
	key     cache.Key // the evaluation's cache key; empty without a cache
	seq     int
	unit    []float64 // the engine's own copy; becomes Sample.Unit
	point   Point
	startAt time.Time
	wait    time.Duration // queued in Evaluate before a slot freed up

	// The running attempt: its 1-based number and its context, which is
	// ctx under the policy's attempt deadline when it sets a timeout.
	// cancel releases that deadline, or the backoff before a retry.
	attempt int
	actx    context.Context
	cancel  context.CancelFunc

	// Set under AsyncRun.mu. An attempt under a deadline hands its
	// outcome over in loss and err; abandoned marks the record of one
	// that expireAttempt concluded first. Its late outcome is dropped,
	// and the record is never reused.
	delivered bool
	loss      float64
	err       error
	abandoned bool

	// Set under AsyncRun.mu when the evaluation finishes, read after the
	// record left the pending table.
	done    bool
	sample  Sample
	hit     bool
	dur     time.Duration
	replErr error
}

// hooks are an asyncEval's entry points, bound once per record.
type hooks struct {
	run     func()                        // bound simulate: `go pe.run()` needs no closure
	deliver func(loss float64, err error) // bound complete, handed to AsyncSimulator.RunAsync
	joined  func(loss float64, ok bool)   // bound settleJoined, the cache waiter of a joined claim
	expire  func()                        // bound expireAttempt, run when an attempt's deadline context ends
	retry   func()                        // bound redispatch, run when a backoff ends
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
	p        *Problem
	notify   chan struct{}
	asyncSim AsyncSimulator // callback delivery; nil runs each evaluation on a goroutine

	// pending minus arrivals is what is running; all of pending counts
	// against the evaluation budget.
	mu       sync.Mutex
	pending  map[int]*asyncEval // submitted, not yet consumed
	arrivals []int              // finished seqs in raw arrival order, unconsumed
	free     []*asyncEval       // recycled records
	nextSeq  int
}

// Async returns the run's evaluation engine for completion-driven use.
func (p *Problem) Async() *AsyncRun { return p.engine() }

// engine returns the calibration's evaluation engine, creating it on
// first use (tests build Problems directly).
func (p *Problem) engine() *AsyncRun {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.async != nil {
		return p.async
	}
	p.async = &AsyncRun{
		p:       p,
		notify:  make(chan struct{}, 1),
		pending: make(map[int]*asyncEval),
	}
	if as, ok := p.sim.(AsyncSimulator); ok {
		p.async.asyncSim = as
	}
	return p.async
}

// Workers returns the configured loss-evaluation parallelism —
// asynchronous algorithms size their in-flight window to it.
func (p *Problem) Workers() int { return p.workers }

// ReplayOrder returns the consumption order the resumed journal holds
// (submission sequence numbers), or nil for a fresh run. Asynchronous
// algorithms must force-consume completions in this order until it is
// exhausted to reproduce the original run bitwise.
func (p *Problem) ReplayOrder() []int {
	if p.journal == nil {
		return nil
	}
	return slices.Clone(p.journal.held.order)
}

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
	pe := a.record()
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
	if p.cache != nil {
		pe.key = cache.NewKey(p.cacheKey, pe.unit)
		if !pe.claim() {
			return seq
		}
	}
	a.dispatch(pe)
	return seq
}

// record returns a free record, or a new one with its entry points
// bound. Called with a.mu held.
func (a *AsyncRun) record() *asyncEval {
	if n := len(a.free); n > 0 {
		pe := a.free[n-1]
		a.free = a.free[:n-1]
		return pe
	}
	pe := &asyncEval{a: a}
	pe.run, pe.deliver = pe.simulate, pe.complete
	if a.p.cache != nil {
		pe.joined = pe.settleJoined
	}
	if a.p.backoff != nil {
		pe.expire, pe.retry = pe.expireAttempt, pe.redispatch
	}
	return pe
}

// dispatch starts the evaluation's next attempt: through the
// simulator's completion callback when the run has one, so no goroutine
// is parked per in-flight lease, and on a goroutine of its own
// otherwise. Under a policy timeout the attempt runs under a deadline,
// on whose end expireAttempt concludes it.
func (a *AsyncRun) dispatch(pe *asyncEval) {
	pe.attempt++
	pe.actx = pe.ctx
	if t := a.p.policy.Timeout; t > 0 {
		pe.delivered = false
		pe.actx, pe.cancel = context.WithTimeout(pe.ctx, t)
		context.AfterFunc(pe.actx, pe.expire)
	}
	if a.asyncSim != nil {
		a.asyncSim.RunAsync(pe.actx, pe.point, pe.deliver)
	} else {
		go pe.run()
	}
}

// claim claims the evaluation's cache key. A hit settles at once, with
// no simulator call and no goroutine; a joined claim is settled by the
// key's owner through settleJoined. It reports true on a miss: the
// evaluation owns the key and is to be dispatched.
func (pe *asyncEval) claim() bool {
	loss, claimed := pe.a.p.cache.Claim(pe.ctx, pe.key, pe.joined)
	if claimed == cache.Hit {
		pe.settle(loss, true, false)
	}
	return claimed == cache.Miss
}

// settleJoined is the cache waiter of a joined claim: the owner's
// memoized loss is a hit. When the owner failed, the evaluation claims
// the key again, unless its own context has ended.
func (pe *asyncEval) settleJoined(loss float64, ok bool) {
	switch {
	case ok:
		pe.settle(loss, true, false)
	case pe.ctx.Err() != nil:
		pe.settle(0, false, true)
	case pe.claim():
		pe.a.dispatch(pe)
	}
}

// serveFromCheckpoint answers a submission the resumed journal already
// holds. Its unit is verified bitwise against what the deterministic
// algorithm re-proposed: a mismatch means the journal belongs to a
// different configuration and fails loudly at consumption. A journaled
// consumption is then served as recorded (its point decoded from the
// verified unit), without touching the simulator. It reports false for
// a submission that has to run, a verified in-flight one included.
// Called with a.mu held.
func (a *AsyncRun) serveFromCheckpoint(pe *asyncEval) bool {
	if a.p.journal == nil {
		return false
	}
	held := &a.p.journal.held
	want, submitted := held.units[pe.seq]
	if !submitted {
		return false
	}
	c, consumed := held.consumed[pe.seq]
	switch {
	case !slices.Equal(want, pe.unit):
		pe.replErr = fmt.Errorf("core: checkpoint diverged at submission %d: stored unit %v, algorithm proposed %v",
			pe.seq, want, pe.unit)
	case consumed:
		pe.sample = Sample{Unit: pe.unit, Point: a.p.Space.Decode(pe.unit), Loss: c.loss, Elapsed: c.elapsed}
	default:
		return false
	}
	return true
}

// simulate is the goroutine body of an attempt on a blocking simulator.
// Panic isolation is always on: a panicking simulator configuration
// becomes a *resilience.PanicError (classified Deterministic, hence
// memoized as +Inf) instead of killing the calibration, for the cost of
// one deferred recover per attempt.
func (pe *asyncEval) simulate() {
	p := pe.a.p
	var loss float64
	err := resilience.Safely(func() (err error) {
		loss, err = p.sim.Run(pe.actx, pe.point)
		return err
	})
	if err != nil && p.fobs != nil {
		var perr *resilience.PanicError
		if errors.As(err, &perr) {
			p.fobs.PanicRecovered("simulator")
		}
	}
	pe.complete(loss, err)
}

// complete is an attempt's raw outcome, from its goroutine or the
// AsyncSimulator's callback. An attempt under a deadline hands it to
// expireAttempt, which the cancel wakes, unless that already abandoned
// the attempt.
func (pe *asyncEval) complete(loss float64, err error) {
	a := pe.a
	if a.p.policy.Timeout <= 0 {
		pe.finish(loss, err)
		return
	}
	a.mu.Lock()
	if !pe.abandoned {
		pe.delivered, pe.loss, pe.err = true, loss, err
	}
	cancel := pe.cancel
	a.mu.Unlock()
	cancel()
}

// expireAttempt concludes an attempt under a deadline once its context
// has ended: with the outcome complete handed over or, when the
// deadline or the budget came first, by abandoning the attempt. A
// failure past the deadline, while ctx lives, is a timeout.
func (pe *asyncEval) expireAttempt() {
	a, p := pe.a, pe.a.p
	a.mu.Lock()
	loss, err := pe.loss, pe.err
	if !pe.delivered {
		pe.abandoned = true
		loss, err = 0, pe.actx.Err()
	}
	a.mu.Unlock()
	if err != nil && pe.ctx.Err() == nil && pe.actx.Err() == context.DeadlineExceeded {
		err = &resilience.TimeoutError{Timeout: p.policy.Timeout}
		if p.fobs != nil {
			p.fobs.EvalTimedOut(p.policy.Timeout)
		}
	}
	pe.finish(loss, err)
}

// finish is an attempt's outcome. A transient failure with attempts
// left is retried after the seeded backoff; any other outcome is the
// evaluation's. An evaluation aborted by budget expiry is not a
// simulator failure: it releases its budget slot and is never surfaced
// — no phantom +Inf sample. Failed, NaN and -Inf losses all normalize
// to +Inf: NaN would poison best-loss comparisons (NaN < x is always
// false) and -Inf would win them unconditionally. The owner of a cache
// key memoizes the outcome, a deterministic failure (a recovered panic
// included) as +Inf, but neither an abort nor a transient failure that
// exhausted its retries: the same point may well succeed later.
func (pe *asyncEval) finish(loss float64, err error) {
	p := pe.a.p
	aborted := err != nil && pe.ctx.Err() != nil
	if !aborted && err != nil && p.policy.Retries(pe.attempt, err) {
		pe.backOff(err)
		return
	}
	if err != nil || math.IsNaN(loss) || math.IsInf(loss, -1) {
		loss = math.Inf(1)
	}
	if pe.key != "" {
		memo := !aborted && (err == nil || resilience.Classify(err) == resilience.Deterministic)
		pe.a.p.cache.Finish(pe.key, loss, memo)
	}
	pe.settle(loss, false, aborted)
}

// backOff retries the evaluation after the seeded backoff. The wait is a
// context under ctx, so a budget expiry ends it at once, and redispatch
// then aborts the evaluation. An evaluation whose attempt was abandoned
// retries on a fresh record.
func (pe *asyncEval) backOff(cause error) {
	p := pe.a.p
	delay := p.backoff.Delay(pe.attempt)
	if p.fobs != nil {
		p.fobs.EvalRetried(pe.attempt, delay, cause)
	}
	if pe.abandoned {
		pe = pe.a.adopt(pe)
	}
	var wait context.Context
	wait, pe.cancel = context.WithTimeout(pe.ctx, delay)
	context.AfterFunc(wait, pe.retry)
}

// redispatch ends a backoff: the next attempt starts, unless the budget
// ended the wait.
func (pe *asyncEval) redispatch() {
	pe.cancel()
	if err := pe.ctx.Err(); err != nil {
		pe.finish(0, err)
		return
	}
	pe.a.dispatch(pe)
}

// adopt moves an evaluation off the record of its abandoned attempt,
// whose late outcome must find nothing to settle, onto a fresh record.
func (a *AsyncRun) adopt(old *asyncEval) *asyncEval {
	a.mu.Lock()
	defer a.mu.Unlock()
	pe := a.record()
	h := pe.hooks
	*pe = *old
	pe.hooks, pe.abandoned = h, false
	a.pending[pe.seq] = pe
	return pe
}

// settle records a normalized completion, or releases an aborted
// evaluation's budget slot.
func (pe *asyncEval) settle(loss float64, hit, aborted bool) {
	a := pe.a
	p := a.p
	if aborted {
		a.mu.Lock()
		delete(a.pending, pe.seq)
		a.recycle(pe)
		a.mu.Unlock()
		a.wake()
		return
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
// list, unless an abandoned attempt may still deliver to it. Called with
// a.mu held.
func (a *AsyncRun) recycle(pe *asyncEval) {
	if pe.abandoned {
		return
	}
	*pe = asyncEval{a: a, hooks: pe.hooks}
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
