package resilience

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	base := errors.New("sim broke")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"plain error", base, Deterministic},
		{"wrapped plain error", fmt.Errorf("outer: %w", base), Deterministic},
		{"panic", NewPanicError("boom", nil), Deterministic},
		{"wrapped panic", fmt.Errorf("eval: %w", NewPanicError("boom", nil)), Deterministic},
		{"timeout", &TimeoutError{Timeout: time.Second}, Transient},
		{"marked transient", MarkTransient(base), Transient},
		{"wrapped transient", fmt.Errorf("eval: %w", MarkTransient(base)), Transient},
		{"canceled", context.Canceled, Aborted},
		{"deadline", context.DeadlineExceeded, Aborted},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		Deterministic: "deterministic",
		Transient:     "transient",
		Aborted:       "aborted",
		Class(9):      "Class(9)",
	} {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestMarkTransientNil(t *testing.T) {
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) should stay nil")
	}
}

func TestSafelyConvertsPanics(t *testing.T) {
	err := Safely(func() error { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Errorf("panic value = %v, want kaboom", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "resilience_test") {
		t.Error("panic stack does not mention the panicking test frame")
	}
	if !strings.Contains(pe.Error(), "kaboom") {
		t.Errorf("Error() = %q, want the panic value included", pe.Error())
	}
}

func TestSafelyPassesThrough(t *testing.T) {
	if err := Safely(func() error { return nil }); err != nil {
		t.Errorf("err = %v, want nil", err)
	}
	want := errors.New("no")
	if err := Safely(func() error { return want }); !errors.Is(err, want) {
		t.Errorf("err = %v, want %v untouched", err, want)
	}
}

// TestPolicyRetries: only a transient failure is retried, and only
// while attempts are left; deterministic failures (panics included) and
// aborts never are, and the zero Policy makes a single attempt.
func TestPolicyRetries(t *testing.T) {
	flaky := MarkTransient(errors.New("flaky"))
	p := Policy{MaxAttempts: 3}
	cases := []struct {
		name    string
		p       Policy
		attempt int
		err     error
		want    bool
	}{
		{"transient, first attempt", p, 1, flaky, true},
		{"transient, second attempt", p, 2, flaky, true},
		{"transient, attempts exhausted", p, 3, flaky, false},
		{"timeout", p, 1, &TimeoutError{Timeout: time.Second}, true},
		{"deterministic", p, 1, errors.New("bad config"), false},
		{"panic", p, 1, NewPanicError("sim exploded", nil), false},
		{"aborted", p, 1, context.Canceled, false},
		{"zero policy", Policy{}, 1, flaky, false},
	}
	for _, tc := range cases {
		if got := tc.p.Retries(tc.attempt, tc.err); got != tc.want {
			t.Errorf("%s: Retries(%d) = %v, want %v", tc.name, tc.attempt, got, tc.want)
		}
	}
}

// TestBackoffDeterministicBySeed: the same seed gives the same delays,
// each inside the exponential envelope with its [0.5, 1.5) jitter, and
// another seed gives others.
func TestBackoffDeterministicBySeed(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		b := NewBackoff(10*time.Millisecond, 40*time.Millisecond, seed)
		var ds []time.Duration
		for attempt := 1; attempt <= 4; attempt++ {
			ds = append(ds, b.Delay(attempt))
		}
		return ds
	}
	a, b := delays(42), delays(42)
	if !slices.Equal(a, b) {
		t.Fatalf("same seed produced different backoff: %v vs %v", a, b)
	}
	caps := []time.Duration{10, 20, 40, 40}
	for i, d := range a {
		lo := caps[i] * time.Millisecond / 2
		hi := caps[i] * time.Millisecond * 3 / 2
		if d < lo || d >= hi {
			t.Errorf("delay %d = %v outside jitter envelope [%v, %v)", i, d, lo, hi)
		}
	}
	if slices.Equal(delays(7), a) {
		t.Error("different seeds produced identical backoff sequences")
	}
}

// TestBackoffDefaults: a Policy that leaves the delays unset gets
// NewBackoff's 50ms base and 2s cap.
func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(0, 0, 1)
	if d := b.Delay(1); d < 25*time.Millisecond || d >= 75*time.Millisecond {
		t.Errorf("first delay %v outside the 50ms default's envelope", d)
	}
	if d := b.Delay(10); d < time.Second || d >= 3*time.Second {
		t.Errorf("tenth delay %v outside the 2s default cap's envelope", d)
	}
}
