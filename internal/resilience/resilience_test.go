package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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

// eventLog records Events notifications for assertions.
type eventLog struct {
	mu       sync.Mutex
	retries  []int
	timeouts int
}

func (l *eventLog) EvalRetried(attempt int, delay time.Duration, cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retries = append(l.retries, attempt)
}

func (l *eventLog) EvalTimedOut(timeout time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.timeouts++
}

// noSleep replaces backoff sleeps so retry tests run instantly.
func noSleep(context.Context, time.Duration) {}

func TestExecutorRetriesTransient(t *testing.T) {
	log := &eventLog{}
	e := NewExecutor(Policy{MaxAttempts: 4}, Config{Events: log, Sleep: noSleep})
	calls := 0
	loss, err := e.Do(context.Background(), func(context.Context) (float64, error) {
		calls++
		if calls < 3 {
			return 0, MarkTransient(errors.New("flaky"))
		}
		return 7.5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss != 7.5 || calls != 3 {
		t.Errorf("loss=%v calls=%d, want 7.5 after 3 calls", loss, calls)
	}
	if len(log.retries) != 2 {
		t.Errorf("retry events = %v, want attempts [1 2]", log.retries)
	}
}

func TestExecutorDeterministicNotRetried(t *testing.T) {
	e := NewExecutor(Policy{MaxAttempts: 5}, Config{Sleep: noSleep})
	calls := 0
	_, err := e.Do(context.Background(), func(context.Context) (float64, error) {
		calls++
		return 0, errors.New("bad config")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want one attempt and the error back", err, calls)
	}
	if Classify(err) != Deterministic {
		t.Errorf("Classify = %v, want Deterministic", Classify(err))
	}
}

func TestExecutorTransientExhaustsAttempts(t *testing.T) {
	log := &eventLog{}
	e := NewExecutor(Policy{MaxAttempts: 3}, Config{Events: log, Sleep: noSleep})
	calls := 0
	cause := errors.New("still flaky")
	_, err := e.Do(context.Background(), func(context.Context) (float64, error) {
		calls++
		return 0, MarkTransient(cause)
	})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the last transient cause", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want MaxAttempts = 3", calls)
	}
	if len(log.retries) != 2 {
		t.Errorf("retry events = %v, want 2 (between 3 attempts)", log.retries)
	}
}

func TestExecutorRecoversPanics(t *testing.T) {
	e := NewExecutor(Policy{}, Config{Sleep: noSleep})
	_, err := e.Do(context.Background(), func(context.Context) (float64, error) {
		panic("sim exploded")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if Classify(err) != Deterministic {
		t.Error("panics must classify Deterministic (memoizable +Inf)")
	}
}

func TestExecutorTimeoutAbandonsHungAttempt(t *testing.T) {
	log := &eventLog{}
	e := NewExecutor(Policy{Timeout: 20 * time.Millisecond, MaxAttempts: 2}, Config{Events: log, Sleep: noSleep})
	var calls atomic.Int32 // the abandoned hung attempt races the retry
	start := time.Now()
	loss, err := e.Do(context.Background(), func(ctx context.Context) (float64, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // hang until the attempt deadline
			return 0, ctx.Err()
		}
		return 1.25, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss != 1.25 {
		t.Errorf("loss = %v, want the retry's 1.25", loss)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("evaluation took %v: the hung attempt stalled the worker", elapsed)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.timeouts != 1 {
		t.Errorf("timeout events = %d, want 1", log.timeouts)
	}
	if len(log.retries) != 1 {
		t.Errorf("retry events = %v, want the timed-out attempt retried", log.retries)
	}
}

func TestExecutorTimeoutOnUnresponsiveSim(t *testing.T) {
	// A sim that ignores its context entirely: the worker must still be
	// freed at the deadline, and the abandoned goroutine must not leak a
	// send (the result channel is buffered).
	release := make(chan struct{})
	e := NewExecutor(Policy{Timeout: 10 * time.Millisecond, MaxAttempts: 1}, Config{Sleep: noSleep})
	_, err := e.Do(context.Background(), func(context.Context) (float64, error) {
		<-release
		return 0, nil
	})
	close(release)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Timeout != 10*time.Millisecond {
		t.Errorf("TimeoutError.Timeout = %v", te.Timeout)
	}
}

func TestExecutorParentCancelIsAborted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewExecutor(Policy{Timeout: time.Second, MaxAttempts: 5}, Config{Sleep: noSleep})
	var calls atomic.Int32 // Do may return before the attempt goroutine exits
	_, err := e.Do(ctx, func(ctx context.Context) (float64, error) {
		calls.Add(1)
		return 0, ctx.Err()
	})
	if Classify(err) != Aborted {
		t.Fatalf("err = %v (class %v), want Aborted", err, Classify(err))
	}
	if n := calls.Load(); n > 1 {
		t.Errorf("aborted evaluation attempted %d times, want no retries", n)
	}
}

func TestExecutorBackoffDeterministicBySeed(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		var ds []time.Duration
		e := NewExecutor(
			Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond},
			Config{Seed: seed, Sleep: func(_ context.Context, d time.Duration) { ds = append(ds, d) }},
		)
		_, _ = e.Do(context.Background(), func(context.Context) (float64, error) {
			return 0, MarkTransient(errors.New("flaky"))
		})
		return ds
	}
	a, b := delays(42), delays(42)
	if len(a) != 4 {
		t.Fatalf("got %d backoff sleeps, want MaxAttempts-1 = 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different backoff: %v vs %v", a, b)
		}
	}
	// Exponential envelope with jitter in [0.5, 1.5): delay i from base 10ms
	// doubling to cap 40ms.
	caps := []time.Duration{10, 20, 40, 40}
	for i, d := range a {
		lo := caps[i] * time.Millisecond / 2
		hi := caps[i] * time.Millisecond * 3 / 2
		if d < lo || d >= hi {
			t.Errorf("delay %d = %v outside jitter envelope [%v, %v)", i, d, lo, hi)
		}
	}
	if c := delays(7); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] && c[3] == a[3] {
		t.Error("different seeds produced identical backoff sequences")
	}
}

func TestExecutorConcurrentUse(t *testing.T) {
	e := NewExecutor(
		Policy{Timeout: 50 * time.Millisecond, MaxAttempts: 3},
		Config{Sleep: noSleep},
	)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_, _ = e.Do(context.Background(), func(context.Context) (float64, error) {
					switch (i + j) % 4 {
					case 0:
						return 0, MarkTransient(errors.New("flaky"))
					case 1:
						panic("boom")
					default:
						return float64(i + j), nil
					}
				})
			}
		}(i)
	}
	wg.Wait()
}
