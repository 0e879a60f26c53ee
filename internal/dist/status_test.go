package dist

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"simcal/internal/core"
	"simcal/internal/obs"
)

// dropOutcome is the completion callback of a hand-built lease whose
// resolution the test does not look at (Close still resolves it).
func dropOutcome(float64, error) {}

// outcomeOf gives a hand-built lease a completion callback and returns
// the channel its resolution lands on.
func outcomeOf(l *lease) <-chan leaseOutcome {
	ch := make(chan leaseOutcome, 1)
	l.cb = func(loss float64, err error) { ch <- leaseOutcome{loss: loss, err: err} }
	return ch
}

// TestStatusRequeueTruncation: Status caps the per-lease requeue list
// at 16 entries but must report the uncapped total, so a /statusz
// reader can tell the list was truncated instead of mistaking the cap
// for the whole story.
func TestStatusRequeueTruncation(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	c.mu.Lock()
	for i := 0; i < 20; i++ {
		c.queue = append(c.queue, &lease{
			id:       uint64(i + 1),
			index:    uint64(i),
			requeues: 1 + i%3,
			cb:       dropOutcome,
		})
	}
	// Canceled and never-requeued leases stay out of both the list and
	// the total.
	c.queue = append(c.queue,
		&lease{id: 100, requeues: 5, canceled: true, cb: dropOutcome},
		&lease{id: 101, requeues: 0, cb: dropOutcome},
	)
	c.mu.Unlock()

	st := c.Status()
	if len(st.Requeues) != 16 {
		t.Errorf("len(Requeues) = %d, want capped at 16", len(st.Requeues))
	}
	if st.RequeuesTotal != 20 {
		t.Errorf("RequeuesTotal = %d, want 20", st.RequeuesTotal)
	}
	if st.RequeuesTotal <= len(st.Requeues) {
		t.Error("truncation is invisible: RequeuesTotal <= len(Requeues)")
	}

	// The total must survive the trip through /statusz (and stay
	// present even when the list is empty — no omitempty).
	srv, err := obs.StartServer("127.0.0.1:0", obs.ServerConfig{
		Registry: obs.NewRegistry(),
		Status:   func() any { return c.Status() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	resp, err := http.Get("http://" + srv.Addr() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Status struct {
			Requeues      []json.RawMessage `json:"requeues"`
			RequeuesTotal *int              `json:"requeues_total"`
		} `json:"status"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/statusz does not parse: %v\n%s", err, body)
	}
	if doc.Status.RequeuesTotal == nil {
		t.Fatalf("/statusz status lacks requeues_total:\n%s", body)
	}
	if *doc.Status.RequeuesTotal != 20 || len(doc.Status.Requeues) != 16 {
		t.Errorf("/statusz requeues_total = %d with %d listed, want 20/16",
			*doc.Status.RequeuesTotal, len(doc.Status.Requeues))
	}
}

// TestStatusJobQueueDepth: queued leases carrying job IDs are broken
// down per job (the simcald /statusz fleet view), and canceled leases
// drop out of the counts.
func TestStatusJobQueueDepth(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	c.mu.Lock()
	for i := 0; i < 3; i++ {
		c.queue = append(c.queue, &lease{id: uint64(i + 1), job: "j-000001", cb: dropOutcome})
	}
	c.queue = append(c.queue,
		&lease{id: 10, job: "j-000002", cb: dropOutcome},
		&lease{id: 11, job: "j-000002", canceled: true, cb: dropOutcome},
		&lease{id: 12, cb: dropOutcome}, // job-less: omitted
	)
	c.mu.Unlock()

	st := c.Status()
	if got := st.JobQueueDepth["j-000001"]; got != 3 {
		t.Errorf("JobQueueDepth[j-000001] = %d, want 3", got)
	}
	if got := st.JobQueueDepth["j-000002"]; got != 1 {
		t.Errorf("JobQueueDepth[j-000002] = %d, want 1 (canceled lease excluded)", got)
	}
	if len(st.JobQueueDepth) != 2 {
		t.Errorf("JobQueueDepth = %v, want exactly 2 jobs", st.JobQueueDepth)
	}
}

// TestCancelJob: canceling a job resolves its queued leases with
// ErrJobCanceled and leaves every other job's leases untouched — the
// isolation property that lets one simcald tenant cancel without
// perturbing its neighbors.
func TestCancelJob(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	mine := make([]<-chan leaseOutcome, 3)
	other := &lease{id: 50, job: "j-other"}
	otherDone := outcomeOf(other)
	c.mu.Lock()
	for i := range mine {
		l := &lease{id: uint64(i + 1), job: "j-mine"}
		mine[i] = outcomeOf(l)
		c.queue = append(c.queue, l)
	}
	c.queue = append(c.queue, other)
	c.mu.Unlock()

	if n := c.CancelJob("j-mine"); n != 3 {
		t.Errorf("CancelJob(j-mine) = %d, want 3", n)
	}
	for i, done := range mine {
		select {
		case out := <-done:
			if out.err != ErrJobCanceled {
				t.Errorf("lease %d resolved with %v, want ErrJobCanceled", i, out.err)
			}
		default:
			t.Errorf("lease %d not resolved by CancelJob", i)
		}
	}
	select {
	case out := <-otherDone:
		t.Errorf("other job's lease resolved with %v; must be untouched", out)
	default:
	}
	// Canceled leases drop out of the queue-depth views.
	st := c.Status()
	if st.JobQueueDepth["j-mine"] != 0 {
		t.Errorf("canceled job still shows queue depth %d", st.JobQueueDepth["j-mine"])
	}
	if st.JobQueueDepth["j-other"] != 1 {
		t.Errorf("JobQueueDepth[j-other] = %d, want 1", st.JobQueueDepth["j-other"])
	}
	// Idempotent: a second cancel finds nothing to do.
	if n := c.CancelJob("j-mine"); n != 0 {
		t.Errorf("second CancelJob = %d, want 0", n)
	}
	if n := c.CancelJob(""); n != 0 {
		t.Errorf("CancelJob(\"\") = %d, want 0", n)
	}
}

// TestRunResolvesThroughLease: the blocking Run has no select of its
// own any more — a shutdown and a context expiry both reach it through
// lease.deliver, like every other resolution. A lease queued on a
// worker-less coordinator returns ErrCoordinatorClosed when the
// coordinator closes and ctx.Err() when its context expires (and is
// then marked canceled, so no dispatcher picks it up).
func TestRunResolvesThroughLease(t *testing.T) {
	// queued blocks until Run's lease is in the queue; RunAsync
	// broadcasts the coordinator's condition variable after enqueueing.
	queued := func(c *Coordinator) *lease {
		c.mu.Lock()
		defer c.mu.Unlock()
		for len(c.queue) == 0 {
			c.cond.Wait()
		}
		return c.queue[0]
	}
	run := func(c *Coordinator, ctx context.Context) <-chan error {
		errCh := make(chan error, 1)
		ev := c.Evaluator([]byte(`{"test":true}`))
		go func() {
			_, err := ev.Run(ctx, core.Point{"x": 1, "y": 1})
			errCh <- err
		}()
		return errCh
	}

	t.Run("closed while queued", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{})
		errCh := run(c, context.Background())
		queued(c)
		c.Close()
		if err := <-errCh; !errors.Is(err, ErrCoordinatorClosed) {
			t.Fatalf("Run returned %v, want ErrCoordinatorClosed", err)
		}
		if _, err := c.Evaluator(nil).Run(context.Background(), core.Point{"x": 1}); !errors.Is(err, ErrCoordinatorClosed) {
			t.Fatalf("Run on a closed coordinator returned %v, want ErrCoordinatorClosed", err)
		}
	})

	t.Run("context expired while queued", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{})
		defer c.Close()
		ctx, cancel := context.WithCancel(context.Background())
		errCh := run(c, ctx)
		l := queued(c)
		cancel()
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		c.mu.Lock()
		canceled := l.canceled
		c.mu.Unlock()
		if !canceled {
			t.Error("the expired lease is not marked canceled: a dispatcher would still send it to a worker")
		}
	})
}
