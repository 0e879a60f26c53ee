package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"simcal/internal/resilience"
)

// RunJobs runs fn(ctx, i) for i in [0, n), at most jobs at once, and
// returns the n results in index order: the independent calibrations —
// the (LoD version × loss × algorithm) cells of the paper's evaluation,
// or one calibration's restarts — of one driver loop. jobs <= 1 runs
// them sequentially in index order.
//
// Concurrency does not change results: every cell derives its own
// deterministic seed from the root seed (never from scheduling order),
// and the results come back in index order, so a parallel run is
// output-identical to a sequential one.
//
// Failures do not cancel siblings: every cell represents an independent
// calibration whose result is worth keeping (and, with a RunLog,
// checkpointing), so one broken cell must not discard hours of sibling
// work. Every job runs to completion; a panic inside a job is recovered
// and converted to that job's error. RunJobs then returns the results
// slice — successful entries filled in, failed indices left at the zero
// value — together with the errors.Join of every per-job failure, each
// wrapped with its index. Only parent-context cancellation stops jobs
// from starting.
func RunJobs[T any](ctx context.Context, jobs, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	run := func(i int) {
		r, err := safeJob(ctx, i, fn)
		if err != nil {
			errs[i] = fmt.Errorf("job %d: %w", i, err)
			return
		}
		results[i] = r
	}
	if jobs <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			run(i)
		}
	} else {
		sem := make(chan struct{}, jobs)
		var wg sync.WaitGroup
	acquire:
		for i := 0; i < n; i++ {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				break acquire
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				run(i)
			}(i)
		}
		wg.Wait()
	}
	all := errs
	if err := ctx.Err(); err != nil {
		// One entry for the abort itself; jobs that never started carry
		// no per-index error.
		all = append(append([]error(nil), errs...), err)
	}
	if err := errors.Join(all...); err != nil {
		return results, err
	}
	return results, nil
}

// safeJob runs one job under panic isolation: a panicking cell becomes
// that cell's error (with the stack attached via resilience.PanicError)
// instead of crashing the whole experiment grid.
func safeJob[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = resilience.NewPanicError(r, nil)
		}
	}()
	return fn(ctx, i)
}

// RunJobsLogged is RunJobs with cell-level checkpointing: jobs whose
// results are already recorded in the RunLog (under scope) are served
// from it without running fn, and every fresh success is appended to
// the log before RunJobsLogged returns. Killing a grid run and
// re-running it with the same log therefore recomputes only the
// unfinished cells — and, because every cell's seed derives from the
// root seed rather than from scheduling order, the resumed grid is
// output-identical to an uninterrupted one. A nil log degrades to plain
// RunJobs.
func RunJobsLogged[T any](ctx context.Context, jobs int, l *RunLog, scope string, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if l == nil {
		return RunJobs(ctx, jobs, n, fn)
	}
	return RunJobs(ctx, jobs, n, func(ctx context.Context, i int) (T, error) {
		var cached T
		if l.Lookup(scope, i, &cached) {
			return cached, nil
		}
		v, err := fn(ctx, i)
		if err != nil {
			return v, err
		}
		if err := l.Store(scope, i, v); err != nil {
			return v, fmt.Errorf("run log: %w", err)
		}
		return v, nil
	})
}
