package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunJobsLoggedCancelMidRun kills a logged grid run while some
// cells are complete and others are parked on the context: the returned
// error must surface context.Canceled, the completed cells must be in
// the journal, and the journal must reopen cleanly (no torn tail) and
// resume with only the unfinished cells recomputed.
func TestRunJobsLoggedCancelMidRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l := openLog(t, path, "seed=1")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan int, 8)
	fn := func(ctx context.Context, i int) (int, error) {
		if i < 2 {
			return i * 10, nil // completes before any cell can block
		}
		started <- i
		<-ctx.Done() // park until the grid run is canceled
		return 0, ctx.Err()
	}

	type outcome struct {
		results []int
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := RunJobsLogged(ctx, 2, l, "grid", 8, fn)
		done <- outcome{r, err}
	}()

	// With a pool of 2 the acquire loop starts cells in index order, so
	// by the time a blocking cell reports in, cells 0 and 1 have run
	// (the blocker's slot was freed by one of them) and been journaled.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no blocking cell started")
	}
	cancel()

	var got outcome
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunJobsLogged did not return after cancel")
	}
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled surfaced", got.err)
	}
	if got.results[0] != 0 || got.results[1] != 10 {
		t.Errorf("completed results lost on cancel: %v", got.results[:2])
	}
	if n := l.Len(); n != 2 {
		t.Errorf("journal holds %d cells after cancel, want 2 (only completed ones)", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal a canceled run leaves behind must be replayable: it
	// reopens with exactly the completed cells, serves them without
	// recomputation, and a resumed run finishes the rest.
	l2 := openLog(t, path, "seed=1")
	defer l2.Close()
	if n := l2.Len(); n != 2 {
		t.Fatalf("reopened journal holds %d cells, want 2", n)
	}
	var v int
	if !l2.Lookup("grid", 1, &v) || v != 10 {
		t.Fatalf("Lookup(grid, 1) = %d, want 10", v)
	}
	if l2.Lookup("grid", 2, &v) {
		t.Fatal("canceled cell 2 present in the journal")
	}

	var reran atomic.Int64
	resumed, err := RunJobsLogged(context.Background(), 4, l2, "grid", 8,
		func(_ context.Context, i int) (int, error) {
			reran.Add(1)
			return i * 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n := reran.Load(); n != 6 {
		t.Errorf("resume recomputed %d cells, want 6 (cells 0-1 replay from the journal)", n)
	}
	for i, v := range resumed {
		if v != i*10 {
			t.Errorf("resumed[%d] = %d, want %d", i, v, i*10)
		}
	}
}

// TestRunJobsSequentialCancelStopsEarly: the sequential run (jobs 1)
// must also stop launching cells once the parent context dies, and
// still report the cancellation.
func TestRunJobsSequentialCancelStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	_, err := RunJobs(ctx, 1, 8, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 3 {
		t.Errorf("ran %d cells, want 3 (cells after the cancel must not start)", n)
	}
}
