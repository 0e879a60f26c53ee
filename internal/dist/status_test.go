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
		c.fleet.queue = append(c.fleet.queue, &lease{
			id:       uint64(i + 1),
			index:    uint64(i),
			requeues: 1 + i%3,
			cb:       dropOutcome,
		})
	}
	// Never-requeued leases, and canceled ones still in flight on a
	// worker, stay out of both the list and the total.
	c.fleet.queue = append(c.fleet.queue, &lease{id: 101, requeues: 0, cb: dropOutcome})
	w := newRemoteWorker("w", 1, nopConn{})
	w.inflight[100] = &lease{id: 100, requeues: 5, canceled: true, cb: dropOutcome}
	c.fleet.workers = append(c.fleet.workers, w)
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

// submitFor enqueues a hand-built lease for job on c and returns it
// with the channel its resolution lands on.
func submitFor(c *Coordinator, job string) (*lease, <-chan leaseOutcome) {
	l := &lease{job: job}
	done := outcomeOf(l)
	c.mu.Lock()
	c.fleet.submit(c.now(), l)
	c.perform()
	return l, done
}

// TestStatusJobQueueDepth: queued leases carrying job IDs are broken
// down per job (the simcald /statusz fleet view), and a lease whose
// context expired drops out of the counts with the queue.
func TestStatusJobQueueDepth(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	for i := 0; i < 3; i++ {
		submitFor(c, "j-000001")
	}
	submitFor(c, "j-000002")
	ctx, expire := context.WithCancel(context.Background())
	expired := make(chan error, 1)
	c.JobEvaluator("j-000002", nil).RunAsync(ctx, core.Point{"x": 1}, func(_ float64, err error) { expired <- err })
	submitFor(c, "") // job-less: omitted
	expire()
	if err := <-expired; err != context.Canceled {
		t.Fatalf("the expired lease resolved with %v, want context.Canceled", err)
	}

	st := c.Status()
	if st.QueueDepth != 5 {
		t.Errorf("QueueDepth = %d, want 5 (the expired lease left the queue)", st.QueueDepth)
	}
	if got := st.JobQueueDepth["j-000001"]; got != 3 {
		t.Errorf("JobQueueDepth[j-000001] = %d, want 3", got)
	}
	if got := st.JobQueueDepth["j-000002"]; got != 1 {
		t.Errorf("JobQueueDepth[j-000002] = %d, want 1 (expired lease excluded)", got)
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
	for i := range mine {
		_, mine[i] = submitFor(c, "j-mine")
	}
	_, otherDone := submitFor(c, "j-other")

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
	if st.QueueDepth != 1 || st.JobQueueDepth["j-mine"] != 0 {
		t.Errorf("after the cancel QueueDepth = %d, JobQueueDepth[j-mine] = %d; want 1 and 0",
			st.QueueDepth, st.JobQueueDepth["j-mine"])
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
// a fleet event, like every other resolution. A lease queued on a
// worker-less coordinator returns ErrCoordinatorClosed when the
// coordinator closes and ctx.Err() when its context expires (and then
// leaves the queue, so no worker is handed it).
func TestRunResolvesThroughLease(t *testing.T) {
	// queued waits until Run's lease is in the queue.
	queued := func(c *Coordinator) {
		waitFor(t, "the lease to enqueue", func() bool { return c.Status().QueueDepth == 1 })
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
		queued(c)
		cancel()
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		if depth := c.Status().QueueDepth; depth != 0 {
			t.Errorf("QueueDepth = %d after the expiry: the lease would still be handed to a worker", depth)
		}
	})
}
