package chaos_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/dist/chaos"
	"simcal/internal/obs"
	"simcal/internal/opt"
)

var soakSpace = core.Space{
	{Name: "x", Kind: core.Continuous, Min: 0, Max: 10},
	{Name: "y", Kind: core.Continuous, Min: 0, Max: 10},
}

// soakSim is the deterministic pure-function loss shared by workers,
// the coordinator's local fallback, and the serial reference — the
// same point yields bitwise the same loss everywhere, which is what
// lets the soak demand a bitwise-equal trajectory under faults.
func soakSim() core.Simulator {
	return core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
		dx, dy := p["x"]-3, p["y"]-7
		return dx*dx + dy*dy + math.Sin(p["x"]*p["y"])*0.25, nil
	})
}

func soakFactory([]byte) (core.Simulator, error) { return soakSim(), nil }

// soakWorkerFactory is soakFactory at 20ms an evaluation, so the run is
// still going when the soak's partition opens.
func soakWorkerFactory([]byte) (core.Simulator, error) {
	sim := soakSim()
	return core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		return sim.Run(ctx, p)
	}), nil
}

var soakFrozen = time.Unix(42, 0)

func soakClock() time.Time { return soakFrozen }

func runSoakSerial(t *testing.T, evals int) *core.Result {
	t.Helper()
	cal := core.Calibrator{
		Space:          soakSpace,
		Simulator:      soakSim(),
		Algorithm:      opt.Random{},
		MaxEvaluations: evals,
		Workers:        1,
		Seed:           7,
		Clock:          soakClock,
	}
	res, err := cal.Run(context.Background())
	if err != nil {
		t.Fatalf("serial calibration: %v", err)
	}
	return res
}

// syncBuffer is a strings.Builder safe for the tracer's writes and the
// test's reads.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestChaosSoakBitwiseIdentical is the end-to-end hardening proof: a
// calibration distributed over two resuming workers behind an
// aggressive fault profile — delays, corruption, truncations, resets,
// and a timed partition that outlasts the heartbeat timeout — plus one
// permanent worker kill mid-run, must finish and produce a history
// bitwise identical to the serial run. The CRC turns corruption into
// connection errors, the partition ends in heartbeat eviction and
// requeue, session resume survives every cut, and the local fallback
// catches anything quarantined or stranded.
func TestChaosSoakBitwiseIdentical(t *testing.T) {
	const evals = 60
	serial := runSoakSerial(t, evals)

	// The partition opens at 100ms, mid-run, and holds every frame for a
	// second, longer than the 600ms heartbeat timeout: the coordinator
	// must evict whoever is connected then and requeue their leases, and
	// a worker that falls silent must resume. Idle workers heartbeat, so
	// the eviction happens even if the run ends first.
	prof, err := chaos.ParseProfile(
		"delay=0.05:2ms,truncate=0.01,corrupt=0.01,reset=0.005,partition=100ms+1s")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := chaos.New(dist.NewLoopback(), prof, 42)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	var trace syncBuffer
	tracer := obs.NewTracer(&trace)
	srv, err := dist.Serve(ct, "", dist.CoordinatorConfig{
		Name:     "chaos-soak",
		Registry: reg,
		Tracer:   tracer,
		// Short cadences so eviction and degradation operate at test
		// timescales.
		HeartbeatEvery:   100 * time.Millisecond,
		HeartbeatTimeout: 600 * time.Millisecond,
		LocalFactory:     soakFactory,
		DegradedGrace:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord := srv.Coord

	// Each worker is a set of its own, so the test can kill one. A
	// connection the coordinator drops — for a corrupt frame, say — ends
	// without a bye frame, so the session redials.
	var workers []*dist.Workers
	for i := range 2 {
		ws, err := dist.StartWorkers(ct, srv.Addr(), 1, dist.WorkerConfig{
			Name:             fmt.Sprintf("chaos-w%d", i),
			Capacity:         2,
			Factory:          soakWorkerFactory,
			HeartbeatEvery:   100 * time.Millisecond,
			HeartbeatTimeout: 600 * time.Millisecond,
		}, dist.SessionConfig{
			Resume:          true,
			MaxDialAttempts: 1000,
			BaseDelay:       20 * time.Millisecond,
			MaxDelay:        200 * time.Millisecond,
			Seed:            int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ws.Close()
		workers = append(workers, ws)
	}

	type calOut struct {
		res *core.Result
		err error
	}
	done := make(chan calOut, 1)
	go func() {
		cal := core.Calibrator{
			Space:          soakSpace,
			Simulator:      coord.Evaluator([]byte(`{"soak":true}`)),
			Algorithm:      opt.Random{},
			MaxEvaluations: evals,
			Workers:        4,
			Seed:           7,
			Clock:          soakClock,
		}
		res, err := cal.Run(context.Background())
		done <- calOut{res, err}
	}()

	// Permanently kill worker 0 mid-run: closing its session cuts its
	// live connection. Worker 1 (still resuming through the chaos) and
	// the local fallback must carry the run home.
	time.Sleep(500 * time.Millisecond)
	workers[0].Close()

	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("chaos calibration: %v", out.err)
		}
		if err := core.CheckIdentical(out.res, serial); err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("chaos calibration did not finish")
	}

	// A heartbeat eviction is traced as a disconnect whose cause names
	// the silence; the deadline only turns a hang into a failure.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(trace.String(), "heartbeat timeout") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the partition outlasted the heartbeat timeout, yet no worker was evicted")
		}
		time.Sleep(50 * time.Millisecond)
	}

	counts := ct.Counts()
	t.Logf("chaos counts: %s", counts)
	if counts.Held == 0 {
		t.Error("the partition held no frames — it was never exercised")
	}
	if counts.Total() == counts.Held {
		t.Error("the fault schedule injected nothing besides the partition")
	}
	if got := reg.Counter("dist.frames_rx").Value(); got == 0 {
		t.Error("dist.frames_rx = 0")
	}
}
