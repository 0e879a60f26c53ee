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

// assertSoakSameHistory demands bitwise-equal trajectories.
func assertSoakSameHistory(t *testing.T, got, want *core.Result) {
	t.Helper()
	if len(got.History) != len(want.History) {
		t.Fatalf("history length = %d, want %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		g, w := got.History[i], want.History[i]
		for k, wv := range w.Point {
			if math.Float64bits(g.Point[k]) != math.Float64bits(wv) {
				t.Fatalf("sample %d: point[%s] = %v, want %v", i, k, g.Point[k], wv)
			}
		}
		if math.Float64bits(g.Loss) != math.Float64bits(w.Loss) {
			t.Fatalf("sample %d: loss = %v, want %v", i, g.Loss, w.Loss)
		}
	}
	if math.Float64bits(got.Best.Loss) != math.Float64bits(want.Best.Loss) {
		t.Fatalf("best loss = %v, want %v", got.Best.Loss, want.Best.Loss)
	}
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

// killableTransport records dialed connections so the test can cut a
// worker's live connection (the process survives; the socket dies).
type killableTransport struct {
	dist.Transport
	mu   sync.Mutex
	last dist.Conn
}

func (k *killableTransport) Dial(addr string) (dist.Conn, error) {
	c, err := k.Transport.Dial(addr)
	if err == nil {
		k.mu.Lock()
		k.last = c
		k.mu.Unlock()
	}
	return c, err
}

func (k *killableTransport) killLast() {
	k.mu.Lock()
	c := k.last
	k.mu.Unlock()
	if c != nil {
		c.Close()
	}
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
	coord := dist.NewCoordinator(dist.CoordinatorConfig{
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
	defer coord.Close()
	ln, err := ct.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go coord.Serve(ln)

	var wg sync.WaitGroup
	type workerHandle struct {
		cancel context.CancelFunc
		kt     *killableTransport
	}
	var handles []workerHandle
	for i := 0; i < 2; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Name:             fmt.Sprintf("chaos-w%d", i),
			Capacity:         2,
			Factory:          soakWorkerFactory,
			HeartbeatEvery:   100 * time.Millisecond,
			HeartbeatTimeout: 600 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wctx, cancel := context.WithCancel(context.Background())
		kt := &killableTransport{Transport: ct}
		handles = append(handles, workerHandle{cancel: cancel, kt: kt})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A coordinator that drops a connection — for a corrupt frame,
			// say — closes it just as one that shuts down does, which ends
			// the worker's session cleanly: restart it, as a process
			// supervisor would, until the test stops it. Errors are
			// expected: the chaos schedule and the permanent kill both end
			// sessions abnormally.
			for wctx.Err() == nil {
				_ = w.RunSession(wctx, kt, "", dist.SessionConfig{
					Resume:          true,
					MaxDialAttempts: 1000,
					BaseDelay:       20 * time.Millisecond,
					MaxDelay:        200 * time.Millisecond,
					Seed:            int64(i + 1),
				})
			}
		}(i)
	}
	stopWorkers := func() {
		for _, h := range handles {
			h.cancel()
			h.kt.killLast()
		}
		wg.Wait()
	}
	defer stopWorkers()

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

	// Permanently kill worker 0 mid-run: cancel its restart loop and cut
	// its live connection. Worker 1 (still resuming through the chaos)
	// and the local fallback must carry the run home.
	time.Sleep(500 * time.Millisecond)
	handles[0].cancel()
	handles[0].kt.killLast()

	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("chaos calibration: %v", out.err)
		}
		assertSoakSameHistory(t, out.res, serial)
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
