package resilience

import "time"

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
	// retry doubles it up to MaxDelay. <= 0 takes NewBackoff's default.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. <= 0 takes NewBackoff's
	// default.
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

// Retries reports whether an evaluation whose attempt number attempt
// (1-based) failed with err makes another attempt: only a transient
// failure is retried, and only while attempts are left. The delay
// before it is Delay(attempt) on a NewBackoff(BaseDelay, MaxDelay, seed).
func (p Policy) Retries(attempt int, err error) bool {
	return attempt < p.MaxAttempts && Classify(err) == Transient
}

// Events receives recovery notifications from the evaluation engine
// that applies a Policy. Implementations must be safe for concurrent
// use. The calibration core bridges these to the obs metrics registry
// and tracer.
type Events interface {
	// EvalRetried fires when a failed attempt is to be retried, as its
	// backoff starts: attempt is the 1-based attempt that just failed,
	// delay the backoff before the next one, and cause the transient
	// error being retried.
	EvalRetried(attempt int, delay time.Duration, cause error)
	// EvalTimedOut fires when an attempt exceeds the per-attempt timeout.
	EvalTimedOut(timeout time.Duration)
}
