// Package resilience makes long calibrations survive the failure modes
// the paper's real runs hit over 24–48 h wall-clock budgets against
// external simulators: panicking evaluations, hung simulator processes,
// and transient infrastructure errors.
//
// It provides three building blocks, all independent of the calibration
// core so any evaluation-shaped code can use them:
//
//   - error classification (Classify, MarkTransient, PanicError,
//     TimeoutError): transient failures deserve a retry, deterministic
//     failures deserve memoization as +Inf, and budget-expiry aborts
//     deserve neither;
//   - panic isolation (Safely): a panic in a simulator or surrogate fit
//     becomes a classified error instead of killing the process;
//   - a Policy (per-attempt timeout, whether a failed attempt is
//     retried) and a Backoff (the seeded exponential delay before it).
//
// The package runs nothing itself: the calibration core's evaluation
// engine applies the Policy as each attempt completes, without a
// goroutine waiting on an attempt or a backoff. Retries and timeouts
// happen inside one loss evaluation, so they never consume evaluation
// budget — the calibration budget counts completed evaluations, each of
// which made one or more attempts.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// Class partitions evaluation errors by the recovery they deserve.
type Class int

const (
	// Deterministic failures re-occur on every attempt at the same point
	// (invalid simulator configuration, panicking parameter region). They
	// are not retried; callers memoize them as +Inf losses so the search
	// avoids the region without re-running it.
	Deterministic Class = iota
	// Transient failures may succeed on retry (timeouts, infrastructure
	// hiccups, errors wrapped by MarkTransient). A Policy retries
	// them with exponential backoff; exhausted retries surface the last
	// error, which callers record as +Inf without memoizing it.
	Transient
	// Aborted errors come from the caller's own context (budget expiry,
	// cancellation). They are neither retried nor recorded as losses.
	Aborted
)

// String returns the class name for logs and trace payloads.
func (c Class) String() string {
	switch c {
	case Deterministic:
		return "deterministic"
	case Transient:
		return "transient"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ParseClass is the inverse of Class.String: it maps a class name (as
// carried on the distributed evaluation wire) back to its Class. The
// second result reports whether the name was recognized.
func ParseClass(s string) (Class, bool) {
	switch s {
	case "deterministic":
		return Deterministic, true
	case "transient":
		return Transient, true
	case "aborted":
		return Aborted, true
	}
	return Deterministic, false
}

// PanicError is a recovered panic converted into an error. It classifies
// as Deterministic: a panicking simulator configuration panics again on
// retry, so the point is memoized as +Inf instead of re-executed.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("resilience: recovered panic: %v", e.Value) }

// NewPanicError wraps a recovered panic value. A nil stack captures the
// current goroutine's stack.
func NewPanicError(value any, stack []byte) *PanicError {
	if stack == nil {
		stack = debug.Stack()
	}
	return &PanicError{Value: value, Stack: stack}
}

// TimeoutError reports an evaluation attempt that exceeded the
// Policy's per-attempt timeout. It classifies as Transient: a hung
// external simulator often responds on a fresh attempt.
type TimeoutError struct {
	// Timeout is the per-attempt bound that was exceeded.
	Timeout time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("resilience: evaluation exceeded the %s per-attempt timeout", e.Timeout)
}

// transientError marks a wrapped error as worth retrying.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient marks err as a transient failure: a Policy retries
// it with backoff instead of failing the evaluation. A nil err returns
// nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// Classify maps an evaluation error to its recovery class. Unrecognized
// errors are Deterministic — the safe default for simulator failures,
// matching the historical "failed evaluation → memoized +Inf" contract.
// A nil error has no class and reports Deterministic; callers should
// test err != nil first.
func Classify(err error) Class {
	var pe *PanicError
	if errors.As(err, &pe) {
		return Deterministic
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		return Transient
	}
	var tr *transientError
	if errors.As(err, &tr) {
		return Transient
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Aborted
	}
	return Deterministic
}

// Safely invokes fn, converting a panic into a *PanicError. The
// calibration core wraps every simulator run and surrogate fit with it
// so a panicking evaluation degrades to a classified error instead of
// killing the whole multi-hour calibration.
func Safely(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError(r, debug.Stack())
		}
	}()
	return fn()
}
