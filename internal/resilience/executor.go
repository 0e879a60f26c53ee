package resilience

import (
	"context"
	"time"
)

// Policy configures the fault-tolerant evaluation runtime. The zero
// Policy disables everything (no timeout, single attempt);
// DefaultPolicy returns the recommended production settings.
type Policy struct {
	// Timeout bounds each evaluation attempt. A hung simulator is
	// abandoned after Timeout and the attempt classified Transient;
	// <= 0 disables per-attempt timeouts.
	Timeout time.Duration
	// MaxAttempts bounds how many times one evaluation runs before a
	// transient failure is surfaced. Values < 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it up to MaxDelay. Defaults to 50ms when a retry is
	// needed and BaseDelay <= 0.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. Defaults to 2s when <= 0.
	MaxDelay time.Duration
}

// DefaultPolicy returns the production defaults: 1-minute attempt
// timeout, 4 attempts per evaluation, 50ms–2s backoff.
func DefaultPolicy() Policy {
	return Policy{
		Timeout:     time.Minute,
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
	}
}

// Events receives recovery notifications from an Executor. Implementations
// must be safe for concurrent use; a nil Events on Config silently drops
// all notifications. The calibration core bridges these to the obs
// metrics registry and tracer.
type Events interface {
	// EvalRetried fires before each backoff sleep: attempt is the
	// 1-based attempt that just failed, delay the upcoming backoff, and
	// cause the transient error being retried.
	EvalRetried(attempt int, delay time.Duration, cause error)
	// EvalTimedOut fires when an attempt exceeds the per-attempt timeout.
	EvalTimedOut(timeout time.Duration)
}

// Config carries the per-calibration wiring of an Executor.
type Config struct {
	// Seed seeds the backoff jitter stream so retried runs remain
	// reproducible.
	Seed int64
	// Events receives recovery notifications; nil drops them.
	Events Events
	// Sleep replaces the backoff sleep in tests; nil uses a
	// context-aware time.Sleep.
	Sleep func(ctx context.Context, d time.Duration)
}

// Executor runs evaluation attempts under a Policy: per-attempt
// timeouts and bounded retries with seeded exponential backoff. One
// Executor serves one calibration and is safe for concurrent use by the
// evaluation worker pool.
type Executor struct {
	policy Policy
	cfg    Config
	bo     *Backoff
}

// NewExecutor returns an Executor applying policy with the given wiring.
func NewExecutor(policy Policy, cfg Config) *Executor {
	if policy.MaxAttempts < 1 {
		policy.MaxAttempts = 1
	}
	if policy.BaseDelay <= 0 {
		policy.BaseDelay = 50 * time.Millisecond
	}
	if policy.MaxDelay <= 0 {
		policy.MaxDelay = 2 * time.Second
	}
	return &Executor{
		policy: policy,
		cfg:    cfg,
		bo:     NewBackoff(policy.BaseDelay, policy.MaxDelay, cfg.Seed),
	}
}

// attemptResult carries one attempt's outcome across the timeout
// goroutine boundary.
type attemptResult struct {
	loss float64
	err  error
}

// Do runs fn as one fault-tolerant evaluation: up to MaxAttempts
// attempts, each bounded by the per-attempt timeout and executed under
// panic recovery. Transient failures are retried after a seeded
// jittered exponential backoff; deterministic failures and
// caller-context aborts return immediately. The error returned (if any)
// is already classified — callers decide memoization from Classify.
func (e *Executor) Do(ctx context.Context, fn func(ctx context.Context) (float64, error)) (float64, error) {
	for attempt := 1; ; attempt++ {
		loss, err := e.attempt(ctx, fn)
		if err == nil {
			return loss, nil
		}
		if Classify(err) != Transient || attempt >= e.policy.MaxAttempts {
			return 0, err
		}
		delay := e.backoff(attempt)
		if e.cfg.Events != nil {
			e.cfg.Events.EvalRetried(attempt, delay, err)
		}
		e.sleep(ctx, delay)
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
	}
}

// attempt executes fn once under panic recovery and, when the policy
// sets a per-attempt timeout, a deadline. A timed-out simulator is
// abandoned: its goroutine unblocks whenever it honors the canceled
// attempt context (or eventually returns into the buffered channel),
// while the worker moves on immediately.
func (e *Executor) attempt(ctx context.Context, fn func(ctx context.Context) (float64, error)) (float64, error) {
	run := func(ctx context.Context) (loss float64, err error) {
		err = Safely(func() error {
			var ferr error
			loss, ferr = fn(ctx)
			return ferr
		})
		return loss, err
	}
	if e.policy.Timeout <= 0 {
		return run(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, e.policy.Timeout)
	defer cancel()
	ch := make(chan attemptResult, 1) // buffered: an abandoned attempt can still complete
	go func() {
		loss, err := run(actx)
		ch <- attemptResult{loss: loss, err: err}
	}()
	timedOut := func() (float64, error) {
		if e.cfg.Events != nil {
			e.cfg.Events.EvalTimedOut(e.policy.Timeout)
		}
		return 0, &TimeoutError{Timeout: e.policy.Timeout}
	}
	select {
	case res := <-ch:
		// A well-behaved simulator may notice the attempt deadline itself
		// and return context.DeadlineExceeded; normalize that to a timeout
		// as long as the caller's own context is still alive, so it is
		// classified Transient rather than Aborted.
		if res.err != nil && actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			return timedOut()
		}
		return res.loss, res.err
	case <-actx.Done():
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		return timedOut()
	}
}

// backoff returns the jittered exponential delay before retry number
// attempt (1-based); see Backoff.
func (e *Executor) backoff(attempt int) time.Duration {
	return e.bo.Delay(attempt)
}

// sleep waits for d or until ctx is canceled.
func (e *Executor) sleep(ctx context.Context, d time.Duration) {
	if e.cfg.Sleep != nil {
		e.cfg.Sleep(ctx, d)
		return
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
