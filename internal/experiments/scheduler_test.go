package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"simcal/internal/cache"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/opt"
	"simcal/internal/resilience"
	"simcal/internal/simspec"
)

func TestNewSchedulerSequentialBelowTwo(t *testing.T) {
	for _, jobs := range []int{-1, 0, 1} {
		if s := NewScheduler(jobs); s != nil {
			t.Errorf("NewScheduler(%d) = %v, want nil (sequential)", jobs, s)
		}
	}
	if NewScheduler(2) == nil {
		t.Error("NewScheduler(2) = nil, want a pool")
	}
}

func TestRunJobsIndexOrder(t *testing.T) {
	for _, s := range []*Scheduler{nil, NewScheduler(4)} {
		got, err := RunJobs(context.Background(), s, 20, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("results[%d] = %d: not in index order", i, v)
			}
		}
	}
}

func TestRunJobsBoundsConcurrency(t *testing.T) {
	const jobs = 3
	var running, peak atomic.Int64
	_, err := RunJobs(context.Background(), NewScheduler(jobs), 24, func(_ context.Context, i int) (int, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer running.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Errorf("peak concurrency %d exceeds pool size %d", p, jobs)
	}
}

// TestRunJobsRunsAllAndJoinsErrors: a cell failure must not discard
// sibling work — every job runs, every failure surfaces (joined and
// index-tagged), and successful results stay available.
func TestRunJobsRunsAllAndJoinsErrors(t *testing.T) {
	boom1 := errors.New("cell 1 exploded")
	boom5 := errors.New("cell 5 exploded")
	for _, s := range []*Scheduler{nil, NewScheduler(4)} {
		var ran atomic.Int64
		results, err := RunJobs(context.Background(), s, 16, func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			switch i {
			case 1:
				return 0, boom1
			case 5:
				return 0, boom5
			}
			return i * i, nil
		})
		if n := ran.Load(); n != 16 {
			t.Errorf("ran %d of 16 jobs; failures must not stop siblings", n)
		}
		if !errors.Is(err, boom1) || !errors.Is(err, boom5) {
			t.Fatalf("err = %v, want both cell errors joined", err)
		}
		if !strings.Contains(err.Error(), "job 1:") || !strings.Contains(err.Error(), "job 5:") {
			t.Errorf("err = %v, want errors tagged with their job index", err)
		}
		if results[3] != 9 || results[15] != 225 {
			t.Errorf("successful results lost alongside the failures: %v", results)
		}
	}
}

// TestRunJobsRecoversPanics: a panicking cell becomes that cell's
// error, not a process crash.
func TestRunJobsRecoversPanics(t *testing.T) {
	for _, s := range []*Scheduler{nil, NewScheduler(2)} {
		results, err := RunJobs(context.Background(), s, 4, func(_ context.Context, i int) (int, error) {
			if i == 2 {
				panic("cell blew up")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "job 2:") {
			t.Fatalf("err = %v, want the recovered panic tagged job 2", err)
		}
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want a resilience.PanicError with the stack", err)
		}
		if results[3] != 3 {
			t.Errorf("sibling results lost after the panic: %v", results)
		}
	}
}

func TestRunJobsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunJobs(ctx, NewScheduler(2), 8, func(ctx context.Context, i int) (int, error) {
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// stripTiming zeroes the fields that legitimately vary between a
// sequential and a concurrent run (wall-clock measurements).
func stripTiming(vs []VersionAccuracy) []VersionAccuracy {
	out := append([]VersionAccuracy(nil), vs...)
	for i := range out {
		out[i].SimMicros = 0
	}
	return out
}

// TestFigure2JobsDeterminism: running the per-version cells concurrently
// must give byte-for-byte the same accuracy numbers as sequentially —
// seeds derive from the options, never from scheduling order.
func TestFigure2JobsDeterminism(t *testing.T) {
	seq, err := Figure2(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	par := tiny()
	par.Jobs = 4
	got, err := Figure2(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	if got.Best != seq.Best {
		t.Errorf("best version differs: %q vs %q", got.Best, seq.Best)
	}
	a, b := stripTiming(seq.Versions), stripTiming(got.Versions)
	if len(a) != len(b) {
		t.Fatalf("version counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("version %d differs:\nsequential: %+v\nconcurrent: %+v", i, a[i], b[i])
		}
	}
}

// TestFigure2CacheDeterminism: attaching a shared evaluation cache must
// not change the results either, and the overlapping configurations
// (versions × restarts revisiting points) must actually produce hits.
func TestFigure2CacheDeterminism(t *testing.T) {
	seq, err := Figure2(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	co := tiny()
	co.Jobs = 4
	co.Cache = cache.New(nil)
	got, err := Figure2(context.Background(), co)
	if err != nil {
		t.Fatal(err)
	}
	a, b := stripTiming(seq.Versions), stripTiming(got.Versions)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("version %d differs with cache:\nuncached: %+v\ncached:   %+v", i, a[i], b[i])
		}
	}
	// A second run over the same options replays entirely from cache.
	if _, err := Figure2(context.Background(), co); err != nil {
		t.Fatal(err)
	}
	if st := co.Cache.Stats(); st.Hits == 0 {
		t.Errorf("no cache hits across repeated Figure2 runs: %+v", st)
	}
}

// parentRestarts3 is the sha256 of the wall-clock-free result of
// TestCalibrateBestMatchesParent's calibration with Restarts: 3, recorded
// at a906003 through Options.calibrateBest, before CalibrateBest became
// the one restart rule. Restart 1 wins there, so the hash pins the
// seeds and the lowest-loss choice, not only restart 0.
const parentRestarts3 = "fae476a01092af8dfea28baed07eb7903fa13af72d06f49760c347fc98d51818"

func TestCalibrateBestMatchesParent(t *testing.T) {
	sp := simspec.ForMPI(mpisim.HighestDetail, loss.MPIL1, groundtruth.MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.BiRandom},
		Nodes:      []int{2}, MsgSizes: []float64{1 << 12, 1 << 18}, Rounds: 1, Reps: 2, Seed: 3,
	}, 1, false)
	space, err := sp.Space()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	o := tiny()
	o.Restarts = 3
	base := *o.calibrator(space, sim, opt.Random{}, 4, "")
	// The experiments drivers' sequential restarts and simcal -jobs 3's
	// concurrent ones.
	for _, s := range []*Scheduler{nil, NewScheduler(3)} {
		r, err := CalibrateBest(context.Background(), s, base, o.Restarts)
		if err != nil {
			t.Fatal(err)
		}
		r.Elapsed, r.Best.Elapsed = 0, 0
		for i := range r.History {
			r.History[i].Elapsed = 0
		}
		var b bytes.Buffer
		if err := r.WriteJSON(&b, true); err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); sum != parentRestarts3 {
			t.Errorf("scheduler %v: result sha256 %s, parent recorded %s", s, sum, parentRestarts3)
		}
	}
}
