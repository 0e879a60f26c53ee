package dist

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

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
	l, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(ccfg)
	go coord.Serve(l)
	w, err := NewWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := lb.Dial("")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx, conn)
	}()
	t.Cleanup(func() {
		coord.Close()
		l.Close()
		cancel()
		<-done
	})
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := coord.WaitForWorkers(wctx, 1); err != nil {
		t.Fatal(err)
	}
	return coord
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

// TestTelemetryEndToEnd runs evaluations through a loopback fleet and
// asserts the contract of telemetry riding the result frame: the moment
// Run returns, that evaluation's worker metrics are in the coordinator's
// registry under worker-labeled names and its dist_worker_eval event is
// in the coordinator's trace, tagged with the worker name, the lease ID
// and the run's trace ID. Nothing here sleeps or polls: absorbed before
// delivered is a happens-before, not a convergence.
func TestTelemetryEndToEnd(t *testing.T) {
	const evals = 5
	reg := obs.NewRegistry()
	var traceBuf syncBuffer
	tracer := obs.NewTracer(&traceBuf)
	coord := startOneWorker(t,
		CoordinatorConfig{Name: "coord", Registry: reg, Tracer: tracer, TraceID: "run-1", HeartbeatEvery: 5 * time.Millisecond},
		WorkerConfig{Name: "w1", Capacity: 2, Factory: sameFactory})

	histName := obs.LabeledName("worker.eval_ns", "worker", "w1")
	okName := obs.LabeledName("worker.evals_ok", "worker", "w1")
	inflightName := obs.LabeledName("worker.inflight_leases", "worker", "w1")
	ev := coord.Evaluator([]byte(`{"test":true}`))
	for i := 1; i <= evals; i++ {
		if _, err := ev.Run(context.Background(), core.Point{"x": float64(i), "y": 1}); err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
		snap := reg.Snapshot()
		if got := snap.Histograms[histName].Count; got != int64(i) {
			t.Fatalf("after %d evaluations the fleet eval histogram holds %d", i, got)
		}
		if got := snap.Counters[okName]; got != int64(i) {
			t.Fatalf("after %d evaluations %s = %d", i, okName, got)
		}
		if got := snap.Gauges[inflightName]; got != 0 {
			t.Fatalf("after %d sequential evaluations %s = %v, want 0", i, inflightName, got)
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
		if _, err := ev.Run(context.Background(), core.Point{"x": 0, "y": 1}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if st := coord.Status(); len(st.Workers) != 1 || st.Workers[0].Name != "w1" {
		t.Errorf("status workers = %+v, want w1 alone", st.Workers)
	}
	// From here on every event carries the estimate.
	if _, err := ev.Run(context.Background(), core.Point{"x": 0, "y": 2}); err != nil {
		t.Fatal(err)
	}
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
