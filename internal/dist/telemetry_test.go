package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"simcal/internal/conformance"
	"simcal/internal/core"
	"simcal/internal/obs"
)

// syncBuffer is a bytes.Buffer safe for concurrent Write (tracer) and
// Bytes (the test reading the trace so far).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// startOneWorker serves one in-process worker from a fresh coordinator
// over the loopback and returns the coordinator once the worker has
// registered. Everything is torn down with the test.
func startOneWorker(t *testing.T, ccfg CoordinatorConfig, wcfg WorkerConfig) *Coordinator {
	t.Helper()
	lb := NewLoopback()
	srv, err := Serve(lb, "", ccfg)
	if err != nil {
		t.Fatal(err)
	}
	workers, err := StartWorkers(lb, srv.Addr(), 1, wcfg, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		workers.Close()
	})
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := srv.Coord.WaitForWorkers(wctx, 1); err != nil {
		t.Fatal(err)
	}
	return srv.Coord
}

// workerEvalKeys is the sorted field set of a dist_worker_eval trace
// record for a successful evaluation of a run with a trace ID, before a
// clock-offset estimate exists — recorded at the commit before the
// telemetry frame was deleted (PR 23), when the worker built the record
// and shipped it as a generic event. Trace readers key on these names.
const workerEvalKeys = "[dur_ns index lease loss source start_unix_ns t_worker_unix_ns trace_id worker]"

// workerEvalKeysWithOffset is the same once an estimate exists.
const workerEvalKeysWithOffset = "[clock_offset_ns dur_ns index lease loss source start_unix_ns t_unix_ns t_worker_unix_ns trace_id worker]"

func sortedKeys(f obs.Fields) string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// workerEvalRecords flushes the tracer and returns the dist_worker_eval
// records written so far.
func workerEvalRecords(t *testing.T, tracer *obs.Tracer, buf *syncBuffer) []obs.Record {
	t.Helper()
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out []obs.Record
	for _, r := range recs {
		if r.Name == obs.EventDistWorkerEval {
			out = append(out, r)
		}
	}
	return out
}

// sameSeries reports how the coordinator's {worker=} evaluation series
// of worker differ from the worker's own, or "" when they are equal:
// the histogram's count, sum, min, max and every bucket, and both
// outcome counters.
func sameSeries(coord, own *obs.Registry, worker string) string {
	series := func(name string) string { return obs.LabeledName(name, "worker", worker) }
	ch, wh := coord.Histogram(series("worker.eval_ns")), own.Histogram("worker.eval_ns")
	if cs, ws := ch.Stat(), wh.Stat(); cs != ws || ch.Buckets() != wh.Buckets() {
		return fmt.Sprintf("worker.eval_ns: coordinator %+v %v, worker %+v %v", cs, ch.Buckets(), ws, wh.Buckets())
	}
	for _, name := range []string{"worker.evals_ok", "worker.evals_failed"} {
		if c, w := coord.Counter(series(name)).Value(), own.Counter(name).Value(); c != w {
			return fmt.Sprintf("%s: coordinator %d, worker %d", name, c, w)
		}
	}
	return ""
}

// TestTelemetryEndToEnd runs evaluations through a loopback fleet and
// asserts the contract of what the result frame carries: the moment
// Run returns, the coordinator's worker.eval_ns{worker=} and outcome
// counters equal the worker's own series exactly, derived from the
// timing and error of the result frames, and that evaluation's
// dist_worker_eval event is in the coordinator's trace, tagged with the
// worker name, the lease ID and the run's trace ID. Nothing here sleeps
// or polls: counted before delivered is a happens-before, not a
// convergence.
func TestTelemetryEndToEnd(t *testing.T) {
	const evals = 5
	reg, wreg := obs.NewRegistry(), obs.NewRegistry()
	var traceBuf syncBuffer
	tracer := obs.NewTracer(&traceBuf)
	coord := startOneWorker(t,
		CoordinatorConfig{Name: "coord", Registry: reg, Tracer: tracer, TraceID: "run-1", HeartbeatEvery: 5 * time.Millisecond},
		WorkerConfig{Name: "w1", Capacity: 2, Factory: sameFactory, Registry: wreg})

	histName := obs.LabeledName("worker.eval_ns", "worker", "w1")
	ev := coord.Evaluator([]byte(`{"test":true}`))
	run := func(p core.Point) {
		t.Helper()
		if _, err := ev.Run(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		if diff := sameSeries(reg, wreg, "w1"); diff != "" {
			t.Fatalf("after an evaluation the series differ: %s", diff)
		}
	}
	for i := 1; i <= evals; i++ {
		run(core.Point{"x": float64(i), "y": 1})
		if got := reg.Histogram(histName).Stat().Count; got != int64(i) {
			t.Fatalf("after %d evaluations the fleet eval histogram holds %d", i, got)
		}
		if got := len(workerEvalRecords(t, tracer, &traceBuf)); got != i {
			t.Fatalf("after %d evaluations the trace holds %d dist_worker_eval records", i, got)
		}
	}

	seenLeases := make(map[float64]bool)
	for _, r := range workerEvalRecords(t, tracer, &traceBuf) {
		// The 5 ms ping may already have been echoed; the two offset
		// fields come and go together.
		if keys := sortedKeys(r.Fields); keys != workerEvalKeys && keys != workerEvalKeysWithOffset {
			t.Errorf("dist_worker_eval fields = %s, want %s (or with the offset pair)", keys, workerEvalKeys)
		}
		if r.Fields["worker"] != "w1" || r.Fields["source"] != "worker" || r.Fields["trace_id"] != "run-1" {
			t.Errorf("event tags = %v/%v/%v, want w1/worker/run-1", r.Fields["worker"], r.Fields["source"], r.Fields["trace_id"])
		}
		lease, ok := r.Fields["lease"].(float64)
		if !ok {
			t.Fatalf("event lease field = %v (%T)", r.Fields["lease"], r.Fields["lease"])
		}
		seenLeases[lease] = true
		if start, _ := r.Fields["start_unix_ns"].(float64); start <= 0 || r.Fields["t_worker_unix_ns"] != r.Fields["start_unix_ns"] {
			t.Errorf("event start_unix_ns = %v, t_worker_unix_ns = %v; want one positive worker-clock stamp", r.Fields["start_unix_ns"], r.Fields["t_worker_unix_ns"])
		}
	}
	if len(seenLeases) != evals {
		t.Errorf("distinct lease IDs in events = %d, want %d", len(seenLeases), evals)
	}

	// The clock-offset estimate needs one ping/echo exchange. The echo
	// rides the next result, so evaluating is what drives it: the
	// deadline only turns a hang into a failure. Same-process clocks
	// make the offset near zero, but the round trip is strictly positive.
	deadline := time.Now().Add(10 * time.Second)
	n := evals
	for coord.Status().Workers[0].RTTNS <= 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no clock-offset estimate: %+v", coord.Status())
		}
		run(core.Point{"x": 0, "y": 1})
		n++
	}
	if st := coord.Status(); len(st.Workers) != 1 || st.Workers[0].Name != "w1" {
		t.Errorf("status workers = %+v, want w1 alone", st.Workers)
	}
	// From here on every event carries the estimate.
	run(core.Point{"x": 0, "y": 2})
	recs := workerEvalRecords(t, tracer, &traceBuf)
	if len(recs) != n+1 {
		t.Fatalf("trace holds %d dist_worker_eval records after %d evaluations", len(recs), n+1)
	}
	last := recs[len(recs)-1].Fields
	if keys := sortedKeys(last); keys != workerEvalKeysWithOffset {
		t.Errorf("dist_worker_eval fields with an offset estimate = %s, want %s", keys, workerEvalKeysWithOffset)
	}
	// (Exact arithmetic is fleet_test's: a decoded trace holds float64s,
	// which round a Unix-nanosecond stamp to 256 ns.)
	tu, _ := last["t_unix_ns"].(float64)
	tw, _ := last["t_worker_unix_ns"].(float64)
	off, _ := last["clock_offset_ns"].(float64)
	if d := tu - (tw - off); d < -1024 || d > 1024 {
		t.Errorf("t_unix_ns = %v, want t_worker_unix_ns %v minus clock_offset_ns %v", tu, tw, off)
	}

	// The per-worker fleet gauges exist once refreshed.
	coord.RefreshFleetGauges()
	snap := reg.Snapshot()
	for _, g := range []string{
		obs.LabeledName("dist.worker_inflight", "worker", "w1"),
		obs.LabeledName("dist.worker_heartbeat_age_ns", "worker", "w1"),
		obs.LabeledName("dist.worker_clock_offset_ns", "worker", "w1"),
	} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("fleet gauge %s missing from snapshot", g)
		}
	}
	if snap.Histograms[histName].Sum <= 0 {
		t.Errorf("fleet eval histogram sum = %d, want > 0", snap.Histograms[histName].Sum)
	}
}

// TestCutEvaluationIsNotObserved cuts a session while an evaluation
// runs — its simulator blocks until its context ends, which the cut
// does — after one evaluation succeeded and one failed. The aborted
// evaluation sends no result and counts as neither outcome, so the
// worker's eval_ns counts the two outcomes it counted, and so does the
// coordinator's copy, derived from the two result frames it received.
func TestCutEvaluationIsNotObserved(t *testing.T) {
	reg, wreg := obs.NewRegistry(), obs.NewRegistry()
	started := make(chan struct{})
	sim := core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
		switch x := p["x"]; {
		case x > 0:
			return x, nil
		case x < 0:
			return 0, errors.New("no such configuration")
		}
		close(started)
		<-ctx.Done()
		return 0, ctx.Err()
	})
	lb := NewLoopback()
	srv, err := Serve(lb, "", CoordinatorConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	workers, err := StartWorkers(lb, srv.Addr(), 1, WorkerConfig{
		Name: "w1", Capacity: 2, Registry: wreg,
		Factory: func([]byte) (core.Simulator, error) { return sim, nil },
	}, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer workers.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Coord.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	ev := srv.Coord.Evaluator([]byte(`{"test":true}`))
	if _, err := ev.Run(ctx, core.Point{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(ctx, core.Point{"x": -1}); err == nil {
		t.Fatal("the failing evaluation succeeded")
	}
	cut := make(chan error, 1)
	go func() {
		_, err := ev.Run(ctx, core.Point{"x": 0})
		cut <- err
	}()
	<-started
	srv.Close()
	if err := <-cut; !errors.Is(err, ErrCoordinatorClosed) {
		t.Errorf("the cut evaluation returned %v, want %v", err, ErrCoordinatorClosed)
	}
	workers.Wait() // the worker's session ends once its evaluation has

	for _, r := range []*obs.Registry{wreg, reg} {
		if err := conformance.CheckWorkerEvals(r); err != nil {
			t.Error(err)
		}
	}
	if n := wreg.Histogram("worker.eval_ns").Stat().Count; n != 2 {
		t.Errorf("the worker's eval_ns counts %d evaluations, want the 2 it counted an outcome for", n)
	}
	if n := reg.Histogram(obs.LabeledName("worker.eval_ns", "worker", "w1")).Stat().Count; n != 2 {
		t.Errorf("the coordinator's eval_ns{worker=w1} counts %d evaluations, want 2", n)
	}
}

// TestFramesCarryNoRegistryState: a worker whose registry moves many
// metrics per evaluation sends the same result frames, byte for byte,
// as a worker with an empty registry. What the coordinator knows of a
// worker's metrics is what the frames carry anyway.
func TestFramesCarryNoRegistryState(t *testing.T) {
	const evals = 20
	results := func(reg *obs.Registry, sim core.Simulator) [][]byte {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w, err := NewWorker(WorkerConfig{
			Name: "w", Clock: NewManualClock(frozenTime), Registry: reg,
			Factory: func([]byte) (core.Simulator, error) { return sim, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		conn := newScriptConn()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = w.Run(ctx, conn)
		}()
		conn.queue(&Frame{Type: TypeHello, Hello: &HelloMsg{Name: "test"}})
		var frames [][]byte
		for i := uint64(1); i <= evals; i++ {
			conn.in <- leaseBytes(i, float64(i), 1)
			<-conn.results
			conn.sendMu.Lock()
			frames = append(frames, bytes.Clone(conn.out))
			conn.sendMu.Unlock()
		}
		cancel()
		awaitRun(t, done, "after its context ended")
		return frames
	}
	loss := func(p core.Point) float64 { return p["x"] * p["y"] }
	quiet := results(obs.NewRegistry(), core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
		return loss(p), nil
	}))
	busy := obs.NewRegistry()
	moved := 0
	noisy := results(busy, core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
		moved++
		for i := 0; i < 32; i++ {
			busy.Counter(fmt.Sprintf("noise.count_%d", i)).Add(int64(moved))
			busy.Gauge(fmt.Sprintf("noise.gauge_%d", i)).Set(float64(moved) / 3)
			busy.Histogram(fmt.Sprintf("noise.hist_%d_ns", i)).Observe(int64(moved) << i)
		}
		return loss(p), nil
	}))
	for i := range quiet {
		if !bytes.Equal(noisy[i], quiet[i]) {
			t.Fatalf("result %d: %d bytes from the busy registry's worker, %d from the empty one's:\n%x\n%x",
				i+1, len(noisy[i]), len(quiet[i]), noisy[i], quiet[i])
		}
	}
}

// TestTwoFramesPerEvaluation is the noise-free gate on the wire's frame
// count: on a one-worker loopback fleet whose clocks never move (so no
// heartbeat is ever due), N evaluations cost the coordinator exactly one
// hello plus N frames in each direction — a lease out, a result back,
// and nothing else.
func TestTwoFramesPerEvaluation(t *testing.T) {
	const evals = 40
	reg := obs.NewRegistry()
	mc := NewManualClock(time.Unix(1000, 0))
	coord := startOneWorker(t,
		CoordinatorConfig{Name: "coord", Registry: reg, Clock: mc},
		WorkerConfig{Name: "w1", Capacity: 2, Factory: sameFactory, Clock: mc})
	ev := coord.Evaluator([]byte(`{"test":true}`))
	for i := 0; i < evals; i++ {
		if _, err := ev.Run(context.Background(), core.Point{"x": float64(i), "y": 1}); err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
	}
	rx, tx := reg.Counter("dist.frames_rx"), reg.Counter("dist.frames_tx")
	if got := rx.Value(); got != 1+evals {
		t.Errorf("dist.frames_rx = %d after %d evaluations, want %d (hello + one result each)", got, evals, 1+evals)
	}
	// The writer counts a frame once its Send has returned, which on the
	// synchronous loopback may be after the result it provoked arrived.
	waitFor(t, "the last lease frame to be counted", func() bool { return tx.Value() >= 1+evals })
	if got := tx.Value(); got != 1+evals {
		t.Errorf("dist.frames_tx = %d after %d evaluations, want %d (hello + one lease each)", got, evals, 1+evals)
	}
	if got := reg.Snapshot().Counters[obs.LabeledName("worker.evals_ok", "worker", "w1")]; got != evals {
		t.Errorf("fleet worker.evals_ok = %d, want %d: the deltas rode the result frames", got, evals)
	}
}

// TestClockOffset checks the NTP arithmetic against a hand-computed
// exchange with a known skew and asymmetric delays.
func TestClockOffset(t *testing.T) {
	// Coordinator clock at 0; worker clock 1000ns ahead. Outbound delay
	// 40ns, return delay 60ns.
	const skew, out, back = 1000, 40, 60
	t1 := int64(0)
	t2 := t1 + out + skew  // worker receive, worker clock
	t3 := t2 + 10          // worker replies 10ns later, worker clock
	t4 := t3 - skew + back // coordinator receive, coordinator clock
	off, rtt := ClockOffset(t1, t2, t3, t4)
	if rtt != out+back {
		t.Errorf("rtt = %d, want %d", rtt, out+back)
	}
	// The estimate absorbs half the delay asymmetry: off = skew + (out-back)/2.
	if want := int64(skew + (out-back)/2); off != want {
		t.Errorf("offset = %d, want %d", off, want)
	}

	// Symmetric delays recover the skew exactly.
	off, rtt = ClockOffset(0, 50+skew, 60+skew, 110)
	if off != skew || rtt != 100 {
		t.Errorf("symmetric exchange: offset = %d rtt = %d, want %d and 100", off, rtt, skew)
	}
}

// TestInflightGaugeSettlesAtZero: a capacity-8 worker whose eight
// evaluations finish together publishes its in-flight count in the
// order the evaluations moved it, so once every evaluation has been
// answered the worker's own gauge reads 0.
func TestInflightGaugeSettlesAtZero(t *testing.T) {
	const capacity, rounds = 8, 200
	// Each round's evaluations wait for one another and return at once.
	var mu sync.Mutex
	arrived, gate := 0, make(chan struct{})
	together := func([]byte) (core.Simulator, error) {
		return core.Evaluator(func(context.Context, core.Point) (float64, error) {
			mu.Lock()
			g := gate
			if arrived++; arrived == capacity {
				close(gate)
				arrived, gate = 0, make(chan struct{})
			}
			mu.Unlock()
			<-g
			return 1, nil
		}), nil
	}
	wreg := obs.NewRegistry()
	coord := startOneWorker(t,
		CoordinatorConfig{Name: "coord"},
		WorkerConfig{Name: "w1", Capacity: capacity, Factory: together, Registry: wreg})
	ev := coord.Evaluator([]byte(`{"test":true}`))
	own := wreg.Gauge("worker.inflight_leases")
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < capacity; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ev.Run(context.Background(), core.Point{"x": float64(i), "y": 1}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if own.Value() != 0 {
			t.Fatalf("round %d: nothing is in flight, yet the worker's gauge reads %v", round, own.Value())
		}
	}
}
