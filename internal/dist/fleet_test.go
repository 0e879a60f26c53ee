package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"simcal/internal/conformance"
	"simcal/internal/obs"
)

// These tests drive the lease lifecycle where it lives: a bare fleet —
// no goroutine, no connection, no clock — fed events with explicit
// timestamps, its actions read back as data. Intervals are seconds;
// nothing sleeps.

// nopConn is the connection of a hand-built worker: tests that read the
// drop action as data never send on it.
type nopConn struct{}

func (nopConn) Send(*Frame) error     { return nil }
func (nopConn) Recv() (*Frame, error) { return nil, errors.New("nopConn: nothing to receive") }
func (nopConn) Close() error          { return nil }

// waitFor yields until cond holds. For tests that have to wait on
// another goroutine's progress: no sleep quantum, and the real-time
// deadline only exists to turn a hang into a failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

const sec = int64(time.Second)

// rig is a bare fleet plus a registry to read its counters from.
type rig struct {
	t   *testing.T
	f   *fleet
	reg *obs.Registry
}

func newRig(t *testing.T, cfg CoordinatorConfig) *rig {
	reg := obs.NewRegistry()
	return &rig{t: t, f: newFleet(cfg.withDefaults(), reg, 0), reg: reg}
}

// take returns the actions produced since the last take.
func (r *rig) take() []action {
	acts := append([]action(nil), r.f.acts...)
	r.f.acts = r.f.acts[:0]
	return acts
}

// worker registers a hand-built worker at now.
func (r *rig) worker(now int64, name string, capacity int) *remoteWorker {
	w := newRemoteWorker(name, capacity, nopConn{})
	r.f.hello(now, w)
	return w
}

// lease builds a lease whose point encodes x; its callback must never
// run (bare-fleet tests read deliver actions instead).
func (r *rig) lease(job string, x float64) *lease {
	return &lease{job: job, point: map[string]WireFloat{"x": WireFloat(x)},
		cb: func(float64, error) { r.t.Error("a completion callback ran inside the state machine") }}
}

// sent drains w's outbox the way its writer would and returns the lease
// messages in it (heartbeats are skipped).
func sent(w *remoteWorker) []*LeaseMsg {
	var msgs []*LeaseMsg
	for _, fr := range w.outbox {
		if fr.Type == TypeLease {
			msgs = append(msgs, fr.Lease)
		}
	}
	w.outbox = w.outbox[:0]
	return msgs
}

// answer feeds the fleet w's result for msg.
func (r *rig) answer(now int64, w *remoteWorker, msg *LeaseMsg, loss float64) {
	r.f.frame(now, w, &Frame{Type: TypeResult, Result: &ResultMsg{
		ID: msg.ID, Index: msg.Index, Loss: WireFloat(loss)}})
}

// delivered filters acts down to the resolutions.
func delivered(acts []action) []action {
	var out []action
	for _, a := range acts {
		if a.kind == actDeliver {
			out = append(out, a)
		}
	}
	return out
}

func kinds(acts []action) []actionKind {
	ks := make([]actionKind, len(acts))
	for i, a := range acts {
		ks[i] = a.kind
	}
	return ks
}

func (r *rig) counter(name string) int64 { return r.reg.Counter(name).Value() }

// TestFleetRefillsBeforeDeliver pins the action order of a result that
// frees a slot while leases wait: the writer's wake comes before the
// completion callback, so the worker is busy again before the caller
// digests the result. (Deliver-first also shows up as +2.5 % allocations
// per evaluation on the svc-wf-jobs benchmark workload — DESIGN §7.)
func TestFleetRefillsBeforeDeliver(t *testing.T) {
	r := newRig(t, CoordinatorConfig{})
	w := r.worker(0, "w", 1)
	first, second := r.lease("", 1), r.lease("", 2)
	r.f.submit(0, first)
	r.f.submit(0, second)
	msgs := sent(w)
	if len(msgs) != 1 || msgs[0].ID != first.id || len(r.f.queue) != 1 {
		t.Fatalf("capacity 1 holds %d leases with %d queued, want 1 and 1", len(msgs), len(r.f.queue))
	}
	r.take()

	r.answer(sec, w, msgs[0], 1.5)
	acts := r.take()
	if got := kinds(acts); len(got) != 2 || got[0] != actWake || got[1] != actDeliver {
		t.Fatalf("result with a lease waiting produced actions %v, want [wake deliver]", got)
	}
	if acts[0].w != w || acts[1].l != first || acts[1].out.loss != 1.5 {
		t.Errorf("wake for %v, deliver of lease %d with %v", acts[0].w, acts[1].l.id, acts[1].out)
	}
	if next := sent(w); len(next) != 1 || next[0].ID != second.id {
		t.Errorf("the freed slot was not refilled with the waiting lease: outbox %v", next)
	}
}

// TestFleetWorkerEvalEvent pins where the dist_worker_eval trace event
// comes from now that the worker no longer ships it: the fleet emits it,
// once, for a result that resolves an in-flight lease — ahead of the
// deliver action, so the trace holds the event before the evaluation's
// caller hears of the result — and never for an answer from a worker
// already declared dead. The clock-offset pair appears
// only once an echo has produced an estimate, and the estimate with the
// smallest round trip is the one that sticks.
func TestFleetWorkerEvalEvent(t *testing.T) {
	r := newRig(t, CoordinatorConfig{Tracer: obs.NewTracer(io.Discard), TraceID: "run-9"})
	w := r.worker(0, "w", 3)
	for i, job := range []string{"job-a", "", ""} {
		r.f.submit(0, r.lease(job, float64(i)))
	}
	msgs := sent(w)
	r.take()
	result := func(now int64, from *remoteWorker, res *ResultMsg) []action {
		r.f.frame(now, from, &Frame{Type: TypeResult, Result: res})
		return r.take()
	}

	first := &ResultMsg{ID: msgs[0].ID, Index: msgs[0].Index, Loss: 1.5, StartUnixNS: 500, DurNS: 20}
	acts := result(sec, w, first)
	if got := kinds(acts); len(got) != 2 || got[0] != actTrace || got[1] != actDeliver {
		t.Fatalf("a resolving result produced actions %v, want [trace deliver]", got)
	}
	if acts[0].name != obs.EventDistWorkerEval {
		t.Errorf("trace action is %q, want %q", acts[0].name, obs.EventDistWorkerEval)
	}
	want := obs.Fields{
		"lease": msgs[0].ID, "index": msgs[0].Index, "job": "job-a", "trace_id": "run-9", "loss": 1.5,
		"start_unix_ns": int64(500), "dur_ns": int64(20), "t_worker_unix_ns": int64(500), "worker": "w", "source": "worker",
	}
	if got := acts[0].fields; !reflect.DeepEqual(got, want) {
		t.Errorf("event fields before any offset estimate =\n %v, want\n %v", got, want)
	}

	// A heartbeat echoes the ping sent at 1 s: worker clock 1000 ns
	// ahead, 40 ns out, 10 ns on the worker, 60 ns back.
	const skew, out, held, back = 1000, 40, 10, 60
	t2 := sec + out + skew
	echo := func(now int64) *Frame {
		return &Frame{Type: TypeHeartbeat, Telemetry: &TelemetryMsg{EchoPingUnixNS: sec, EchoRecvUnixNS: t2, SentUnixNS: t2 + held}}
	}
	r.f.frame(t2+held-skew+back, w, echo(0))
	if !w.hasOffset || w.offsetNS != skew+(out-back)/2 || w.offsetRTT != out+back {
		t.Fatalf("offset estimate = %d (rtt %d, have %v), want %d (rtt %d)", w.offsetNS, w.offsetRTT, w.hasOffset, skew+(out-back)/2, out+back)
	}
	// The same echo arriving later is a longer round trip: ignored.
	r.f.frame(t2+held-skew+back+500, w, echo(0))
	if w.offsetRTT != out+back {
		t.Errorf("a slower exchange replaced the estimate: rtt %d, want %d", w.offsetRTT, out+back)
	}
	r.take()

	// A failed evaluation, after the estimate: err instead of loss, no
	// job on a job-less lease, and the start translated to this clock.
	acts = result(3*sec, w, &ResultMsg{ID: msgs[1].ID, Index: msgs[1].Index, Err: "boom", Class: "deterministic", StartUnixNS: 2*sec + skew, DurNS: 7})
	if got := kinds(acts); len(got) != 2 || got[0] != actTrace || got[1] != actDeliver {
		t.Fatalf("a failed result produced actions %v, want [trace deliver]", got)
	}
	want = obs.Fields{
		"lease": msgs[1].ID, "index": msgs[1].Index, "trace_id": "run-9", "err": "boom",
		"start_unix_ns": 2*sec + skew, "dur_ns": int64(7), "t_worker_unix_ns": 2*sec + skew, "worker": "w", "source": "worker",
		"clock_offset_ns": int64(skew + (out-back)/2), "t_unix_ns": 2*sec + skew - (skew + (out-back)/2),
	}
	if got := acts[0].fields; !reflect.DeepEqual(got, want) {
		t.Errorf("event fields with an offset estimate =\n %v, want\n %v", got, want)
	}

	// A worker declared dead answers anyway: its lease was requeued, and
	// the late result is neither traced nor delivered.
	r.f.dead(4*sec, w, errors.New("killed"))
	r.take()
	if acts := result(4*sec, w, &ResultMsg{ID: msgs[2].ID, Index: msgs[2].Index, Loss: 9}); len(acts) != 0 || r.counter("dist.results_duplicate") != 1 {
		t.Errorf("a dead worker's result produced actions %v with dist.results_duplicate = %d, want none and 1", kinds(acts), r.counter("dist.results_duplicate"))
	}
	if len(r.f.queue) != 1 || r.f.queue[0].id != msgs[2].ID {
		t.Errorf("the dead worker's lease is not waiting for another worker: queue %v", r.f.queue)
	}
}

// TestFleetSteadyStateAllocations pins the cost of the state machine
// itself: a submit → assign → result cycle allocates nothing — the lease
// frame it hands the writer is part of the lease, and there is no
// action list growth, no queue churn, no map growth.
func TestFleetSteadyStateAllocations(t *testing.T) {
	r := newRig(t, CoordinatorConfig{})
	w := r.worker(0, "w", 2)
	r.take()
	l := r.lease("", 1)
	res := &Frame{Type: TypeResult, Result: &ResultMsg{}}
	now := int64(0)
	cycle := func() {
		now += sec / 1000
		*l = lease{point: l.point, cb: l.cb}
		r.f.submit(now, l)
		msg := w.outbox[0].Lease
		w.outbox = w.outbox[:0] // the writer took it
		res.Result.ID = msg.ID
		r.f.frame(now, w, res)
		if len(r.f.acts) != 2 || !l.settled {
			t.Fatalf("cycle produced %d actions, settled=%v; want wake + deliver", len(r.f.acts), l.settled)
		}
		r.f.acts = r.f.acts[:0] // perform took them
	}
	cycle() // warm the queue, outbox, action list and in-flight table
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("a steady-state lease cycle allocates %.0f objects, want 0", allocs)
	}
}

// TestFleetRequeuesInLeaseOrder kills a capacity-4 worker holding four
// leases: they go back to the tail of the queue in lease-ID order, not
// in map-iteration order, so a fixed chaos seed replays the same frame
// sequence.
func TestFleetRequeuesInLeaseOrder(t *testing.T) {
	for round := 0; round < 20; round++ { // map order is random per iteration
		r := newRig(t, CoordinatorConfig{})
		w := r.worker(0, "doomed", 4)
		for i := 0; i < 4; i++ {
			r.f.submit(0, r.lease("", float64(i)))
		}
		waiting := r.lease("", 9)
		r.f.submit(0, waiting)
		if len(w.inflight) != 4 || len(r.f.queue) != 1 {
			t.Fatalf("in flight %d, queued %d; want 4 and 1", len(w.inflight), len(r.f.queue))
		}
		r.f.dead(sec, w, errors.New("killed"))
		var got []uint64
		for _, l := range r.f.queue {
			got = append(got, l.id)
		}
		if fmt.Sprint(got) != "[5 1 2 3 4]" {
			t.Fatalf("queue after the death = %v, want [5 1 2 3 4] (waiting lease first, requeues at the tail in ID order)", got)
		}
		if n := r.counter("dist.leases_requeued"); n != 4 {
			t.Errorf("dist.leases_requeued = %d, want 4", n)
		}
	}
}

// TestFleetAssignsToFreestWorker: a lease goes to the worker with the
// most free slots, the first registered on a tie.
func TestFleetAssignsToFreestWorker(t *testing.T) {
	r := newRig(t, CoordinatorConfig{})
	a, b := r.worker(0, "a", 2), r.worker(0, "b", 3)
	var order []string
	for i := 0; i < 5; i++ {
		r.f.submit(0, r.lease("", float64(i)))
		for _, w := range []*remoteWorker{a, b} {
			if len(sent(w)) == 1 {
				order = append(order, w.name)
			}
		}
	}
	if got := strings.Join(order, ""); got != "babab" {
		t.Errorf("assignment order = %s, want babab (b has more room, a wins ties)", got)
	}
	r.f.submit(0, r.lease("", 5))
	if len(r.f.queue) != 1 {
		t.Errorf("a sixth lease on a full fleet of 5 slots: queue depth %d, want 1", len(r.f.queue))
	}
}

// TestCoordinatorKeepsHeartbeatingWorkerAlive: the eviction rule in
// simulated time. A worker that answers pings stays registered however
// far time advances, is pinged once per HeartbeatEvery, and is evicted
// at the first tick after HeartbeatTimeout of silence — with its lease
// requeued, its connection dropped once, and the timer told when to
// wake.
func TestCoordinatorKeepsHeartbeatingWorkerAlive(t *testing.T) {
	r := newRig(t, CoordinatorConfig{HeartbeatEvery: 2 * time.Second, HeartbeatTimeout: 10 * time.Second})
	w := r.worker(0, "alive", 1)
	if got := kinds(r.take()); len(got) != 2 || got[0] != actMembers || got[1] != actArm {
		t.Fatalf("hello produced %v, want [members arm]", got)
	}
	r.f.submit(0, r.lease("", 1))
	sent(w)
	r.take()

	pings := 0
	now := int64(0)
	for now < 90*sec {
		deadline := r.f.tick(now)
		if deadline != now+2*sec && deadline != w.nextPingNS {
			t.Fatalf("tick(%ds) sleeps until %ds, want the next ping", now/sec, deadline/sec)
		}
		for _, fr := range w.outbox {
			if fr.Type != TypeHeartbeat || fr.Heartbeat.PingUnixNS != now {
				t.Fatalf("outbox at %ds holds %+v, want one ping stamped now", now/sec, fr)
			}
			pings++
			r.f.frame(now+sec/2, w, &Frame{Type: TypeHeartbeat}) // the worker answers
		}
		w.outbox = w.outbox[:0]
		now = deadline
	}
	if pings != 44 || len(r.f.workers) != 1 {
		t.Fatalf("after 90s of answered pings: %d pings, %d workers; want 44 and 1", pings, len(r.f.workers))
	}
	r.take()

	// Now the worker falls silent. Its last frame arrived at 88.5s, so
	// the ticks at 90..98s keep it and the one at 100s evicts it.
	for ; now <= 98*sec; now += 2 * sec {
		r.f.tick(now)
		if len(r.f.workers) != 1 {
			t.Fatalf("evicted at %ds, %.1fs after its last frame (timeout 10s)", now/sec, float64(now-w.lastRecvNS)/1e9)
		}
	}
	r.take()
	if deadline := r.f.tick(now); deadline != 0 {
		t.Errorf("tick on an empty fleet with no local fallback sleeps until %d, want 0 (nothing pending)", deadline)
	}
	acts := r.take()
	if len(r.f.workers) != 0 || !w.dead || len(r.f.queue) != 1 {
		t.Fatalf("at %ds: workers %d, dead %v, queue %d; want the silent worker evicted and its lease requeued", now/sec, len(r.f.workers), w.dead, len(r.f.queue))
	}
	if got := kinds(acts); len(got) != 2 || got[0] != actDrop || got[1] != actMembers {
		t.Errorf("eviction produced %v, want [drop members]", got)
	}
	r.f.dead(now, w, errors.New("the reader's Recv failed too"))
	if acts := r.take(); len(acts) != 0 || r.counter("dist.workers_lost") != 1 {
		t.Errorf("a second death report produced %v, workers_lost %d; want nothing and 1", kinds(acts), r.counter("dist.workers_lost"))
	}
}

// TestDuplicateResultDropped: the first result for a live lease
// resolves it and frees its slot; one from a worker already declared
// dead — read by its reader just before a heartbeat eviction — is
// dropped and counted, and accounting stays single.
func TestDuplicateResultDropped(t *testing.T) {
	r := newRig(t, CoordinatorConfig{})
	w := r.worker(0, "fake", 1)
	l := r.lease("", 1)
	r.f.submit(0, l)
	msg := sent(w)[0]
	r.take()
	r.answer(sec, w, msg, 1.5)
	d := delivered(r.take())
	if len(d) != 1 || d[0].l != l || d[0].out.loss != 1.5 {
		t.Fatalf("the answer delivered %v, want one resolution with 1.5", d)
	}
	if len(w.inflight) != 0 {
		t.Errorf("worker still holds %d leases in flight", len(w.inflight))
	}

	late := r.lease("", 2)
	r.f.submit(sec, late)
	msg = sent(w)[0]
	r.f.tick(sec + int64(DefaultHeartbeatTimeout) + 1) // silent since its hello at 0
	if !w.dead {
		t.Fatal("the silent worker was not evicted")
	}
	r.take()
	r.answer(sec+int64(DefaultHeartbeatTimeout)+1, w, msg, 2.5) // read before the eviction, handed over after
	if d := delivered(r.take()); len(d) != 0 || len(r.f.queue) != 1 || r.f.queue[0] != late {
		t.Errorf("an evicted worker's answer delivered %v with %d queued; want nothing (the lease was requeued)", d, len(r.f.queue))
	}
	if n := r.counter("dist.results_duplicate"); n != 1 {
		t.Errorf("dist.results_duplicate = %d, want 1", n)
	}
}

// TestFleetQuarantineAtCap: a lease survives maxRequeues worker deaths
// and is quarantined on the next one — to the local evaluator when
// there is one, with a deterministic error when there is not.
func TestFleetQuarantineAtCap(t *testing.T) {
	for _, local := range []bool{false, true} {
		cfg := CoordinatorConfig{Tracer: obs.NewTracer(new(strings.Builder))}
		if local {
			cfg.LocalFactory = sameFactory
		}
		r := newRig(t, cfg)
		l := r.lease("", 1)
		r.f.submit(0, l)
		for death := 1; death <= maxRequeues+1; death++ {
			w := r.worker(int64(death)*sec, fmt.Sprintf("victim-%d", death), 1)
			if msgs := sent(w); len(msgs) != 1 || msgs[0].ID != l.id {
				t.Fatalf("local=%v death %d: delivery %+v, want lease %d", local, death, msgs, l.id)
			}
			r.take()
			r.f.dead(int64(death)*sec, w, errors.New("poisoned"))
			acts := r.take()
			if death <= maxRequeues {
				if len(r.f.queue) != 1 || l.requeues != death || len(delivered(acts)) != 0 {
					t.Fatalf("local=%v death %d: queue %d, requeues %d; want requeued", local, death, len(r.f.queue), l.requeues)
				}
				continue
			}
			if len(r.f.queue) != 0 || r.counter("dist.leases_quarantined") != 1 {
				t.Fatalf("local=%v: after death %d queue %d, quarantined %d; want 0 and 1", local, maxRequeues+1, len(r.f.queue), r.counter("dist.leases_quarantined"))
			}
			var traced bool
			for _, a := range acts {
				traced = traced || a.kind == actTrace && a.name == obs.EventDistLeaseQuarantined && a.fields["requeues"] == maxRequeues+1
			}
			if !traced {
				t.Errorf("local=%v: no dist_lease_quarantined trace action with requeues=%d in %v", local, maxRequeues+1, kinds(acts))
			}
			last := acts[len(acts)-1]
			if local {
				if last.kind != actLocal || last.l != l || last.name != "quarantine" {
					t.Errorf("with a local factory the poison lease produced %+v, want a local evaluation", last)
				}
			} else if last.kind != actDeliver || last.out.err == nil || !strings.Contains(last.out.err.Error(), fmt.Sprintf("quarantined after %d requeues", maxRequeues+1)) {
				t.Errorf("without a local factory the poison lease produced %+v, want the quarantine error", last)
			}
		}
	}
}

// TestFleetDegradesAfterGraceAndReabsorbs: with a local factory, leases
// queued on an empty fleet wait out DegradedGrace (the timer is armed
// for its end), then drain to the local evaluator; later submissions go
// straight there; a worker's hello ends degraded mode at once.
func TestFleetDegradesAfterGraceAndReabsorbs(t *testing.T) {
	r := newRig(t, CoordinatorConfig{LocalFactory: sameFactory, DegradedGrace: 30 * time.Second})
	a, b := r.lease("", 1), r.lease("", 2)
	r.f.submit(5*sec, a)
	r.f.submit(6*sec, b)
	if got := kinds(r.take()); len(got) != 1 || got[0] != actArm || r.f.armedNS != 30*sec {
		t.Fatalf("two submits on an empty fleet produced %v armed for %v; want one arm for 30s", got, time.Duration(r.f.armedNS))
	}
	if deadline := r.f.tick(30*sec - 1); deadline != 30*sec || len(r.take()) != 0 || r.f.degraded {
		t.Fatalf("one nanosecond before the grace ends: deadline %v, degraded %v", time.Duration(deadline), r.f.degraded)
	}
	if deadline := r.f.tick(30 * sec); deadline != 0 {
		t.Errorf("after the drain the timer sleeps until %v, want 0", time.Duration(deadline))
	}
	acts := r.take()
	if got := kinds(acts); len(got) != 2 || got[0] != actLocal || got[1] != actLocal ||
		acts[0].l != a || acts[1].l != b || acts[0].name != "degraded" {
		t.Fatalf("grace expiry produced %v, want both leases handed to the local evaluator in order", got)
	}
	if !r.f.degraded || r.reg.Gauge("dist.degraded").Value() != 1 {
		t.Error("not degraded after draining locally")
	}
	r.f.submit(40*sec, r.lease("", 3))
	if got := kinds(r.take()); len(got) != 1 || got[0] != actLocal {
		t.Errorf("a submit in degraded mode produced %v, want [local]", got)
	}

	w := r.worker(50*sec, "late", 1)
	r.take()
	if r.f.degraded || r.reg.Gauge("dist.degraded").Value() != 0 {
		t.Error("still degraded after a worker registered")
	}
	r.f.submit(51*sec, r.lease("", 4))
	if msgs := sent(w); len(msgs) != 1 {
		t.Errorf("the re-absorbed worker was handed %d leases, want 1", len(msgs))
	}

	// The window reopens when the fleet empties again.
	r.f.dead(60*sec, w, errors.New("gone"))
	r.take()
	r.f.tick(89 * sec)
	if r.f.degraded {
		t.Error("degraded 29s after the fleet emptied; the grace is 30s")
	}
	r.f.tick(90 * sec)
	if got := kinds(r.take()); !r.f.degraded || len(got) != 1 || got[0] != actLocal {
		t.Errorf("30s after the fleet emptied: degraded %v, actions %v; want the requeued lease drained locally", r.f.degraded, got)
	}
}

// TestFleetCancelIsolation: CancelJob resolves the job's queued leases
// at once and lets its in-flight ones finish — resolving them with
// ErrJobCanceled instead of requeueing if their worker dies — and never
// touches another job's leases; a lease's own context expiry resolves
// only that lease, frees nothing it does not hold, and its late result
// is dropped.
func TestFleetCancelIsolation(t *testing.T) {
	r := newRig(t, CoordinatorConfig{})
	w := r.worker(0, "w", 2)
	mineFlying, otherFlying := r.lease("mine", 1), r.lease("other", 2)
	mineQueued, otherQueued := r.lease("mine", 3), r.lease("other", 4)
	ctx, expire := context.WithCancel(context.Background())
	defer expire()
	watched := r.f.watch(otherQueued, ctx)
	for _, l := range []*lease{mineFlying, otherFlying, mineQueued, otherQueued} {
		r.f.submit(0, l)
	}
	msgs := sent(w)
	r.take()

	if n := r.f.cancelJob("mine"); n != 2 {
		t.Fatalf("cancelJob(mine) = %d, want 2 (one queued, one in flight)", n)
	}
	d := delivered(r.take())
	if len(d) != 1 || d[0].l != mineQueued || d[0].out.err != ErrJobCanceled {
		t.Fatalf("cancelJob delivered %v, want only the queued lease with ErrJobCanceled", d)
	}
	if len(r.f.queue) != 1 || r.f.queue[0] != otherQueued || len(w.inflight) != 2 {
		t.Fatalf("after the cancel: queue %d, in flight %d; want the other job's lease queued and both in flight", len(r.f.queue), len(w.inflight))
	}
	if n := r.f.cancelJob("mine"); n != 0 {
		t.Errorf("second cancelJob = %d, want 0", n)
	}

	// The other job's queued lease has its context expire: it leaves the
	// queue; nothing else moves.
	expire()
	r.f.expire(watched)
	if d := delivered(r.take()); len(d) != 1 || d[0].l != otherQueued || d[0].out.err != context.Canceled || len(r.f.queue) != 0 {
		t.Fatalf("context expiry delivered %v with %d queued", d, len(r.f.queue))
	}
	if len(r.f.watches) != 0 || len(r.f.released) != 1 || r.f.released[0] != watched {
		t.Errorf("after the expiry %d watches are armed and %d released, want the expired one released", len(r.f.watches), len(r.f.released))
	}
	r.f.expire(watched)
	if acts := r.take(); len(acts) != 0 {
		t.Errorf("a second expiry of a settled lease produced %v", kinds(acts))
	}

	// The worker dies: the other job's lease requeues, the canceled
	// job's lease resolves instead.
	r.f.dead(sec, w, errors.New("killed"))
	d = delivered(r.take())
	if len(d) != 1 || d[0].l != mineFlying || d[0].out.err != ErrJobCanceled {
		t.Fatalf("the death delivered %v, want the canceled job's in-flight lease with ErrJobCanceled", d)
	}
	if len(r.f.queue) != 1 || r.f.queue[0] != otherFlying {
		t.Fatalf("after the death the queue holds %d leases, want the other job's lease requeued", len(r.f.queue))
	}
	r.answer(sec, w, msgs[0], 1) // the dead worker's answer for the canceled lease
	if acts := r.take(); len(delivered(acts)) != 0 {
		t.Errorf("a late answer re-resolved a canceled lease: %v", kinds(acts))
	}
}

// TestFleetCloseDropsEachWorkerOnce: close resolves everything with
// ErrCoordinatorClosed and drops each worker exactly once — including a
// worker whose hello arrives after the close, which must be dead before
// its reader's failing Recv reports it.
func TestFleetCloseDropsEachWorkerOnce(t *testing.T) {
	r := newRig(t, CoordinatorConfig{LocalFactory: sameFactory})
	w := r.worker(0, "w", 1)
	flying, queued := r.lease("", 1), r.lease("", 2)
	r.f.submit(0, flying)
	r.f.submit(0, queued)
	r.take()

	r.f.close(sec)
	acts := r.take()
	drops := 0
	for _, a := range acts {
		if a.kind == actDrop {
			drops++
		}
	}
	d := delivered(acts)
	if drops != 1 || len(d) != 2 || d[0].out.err != ErrCoordinatorClosed || d[1].out.err != ErrCoordinatorClosed {
		t.Fatalf("close produced %d drops and resolutions %v; want 1 and both leases closed", drops, d)
	}
	r.f.dead(sec, w, errors.New("EOF"))
	if acts := r.take(); len(acts) != 0 {
		t.Errorf("the reader's death report after close produced %v", kinds(acts))
	}
	if r.f.tick(2*sec) != 0 || len(r.take()) != 0 {
		t.Error("a closed fleet still has timer work")
	}

	late := newRemoteWorker("late", 1, nopConn{})
	r.f.hello(2*sec, late)
	if got := kinds(r.take()); len(got) != 1 || got[0] != actDrop || !late.dead {
		t.Fatalf("hello after close produced %v (dead=%v), want one drop of a dead worker", got, late.dead)
	}
	r.f.dead(2*sec, late, errors.New("EOF"))
	if acts := r.take(); len(acts) != 0 {
		t.Errorf("the late worker was dropped twice: %v", kinds(acts))
	}
	after := r.lease("", 3)
	r.f.submit(3*sec, after)
	if d := delivered(r.take()); len(d) != 1 || d[0].out.err != ErrCoordinatorClosed {
		t.Errorf("a submit after close delivered %v, want ErrCoordinatorClosed", d)
	}
}

// ---- seeded fault schedules ----

// simWorker is the far end of one fleet worker in the schedule test:
// the frames its writer has put on the wire and the frames it has sent
// back, each delivered once and in order.
type simWorker struct {
	w     *remoteWorker
	down  []*Frame // coordinator → worker, in flight
	up    []*Frame // worker → coordinator, in flight
	drops int
}

// simLease is the schedule's record of one lease.
type simLease struct {
	l           *lease
	ctx         context.Context
	want        float64
	deaths      int // workers that died holding it while it was live
	jobCanceled bool
	ctxCanceled bool
	resolved    int
	out         leaseOutcome
}

type schedule struct {
	t       *testing.T
	seed    int64
	rng     *rand.Rand
	f       *fleet
	now     int64
	workers []*simWorker // alive
	ghosts  []*simWorker // dead, but with frames still in the air
	leases  map[*lease]*simLease
	live    []*simLease // unresolved
	step    int

	// ctxs are the contexts leases share (a lease may also have
	// context.Background, which has no watch); pending holds the watches
	// whose context expired and whose AfterFunc callback has yet to run.
	ctxs    [4]context.Context
	cancels [4]context.CancelFunc
	pending []*watch
}

func simLoss(x float64) float64 { return x*2 + 1 }

// simJobs are the job IDs leases are submitted under; the first is "no
// job" and is never canceled.
var simJobs = []string{"", "a", "b", "c", "d", "e", "f"}

func (s *schedule) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("seed %d step %d: %s", s.seed, s.step, fmt.Sprintf(format, args...))
}

// perform plays the coordinator's part for one event's actions.
func (s *schedule) perform() {
	for _, a := range s.f.acts {
		switch a.kind {
		case actDeliver:
			sl := s.leases[a.l]
			if sl.resolved++; sl.resolved > 1 {
				s.fatalf("lease %d resolved twice: %v then %v", a.l.id, sl.out, a.out)
			}
			sl.out = a.out
			for i, o := range s.live {
				if o == sl {
					s.live = append(s.live[:i], s.live[i+1:]...)
					break
				}
			}
		case actWake:
			sw := s.sim(a.w)
			sw.down = append(sw.down, a.w.outbox...)
			a.w.outbox = a.w.outbox[:0]
		case actDrop:
			sw := s.sim(a.w)
			if sw.drops++; sw.drops > 1 {
				s.fatalf("worker %s dropped twice", a.w.name)
			}
			for i, o := range s.workers {
				if o == sw {
					s.workers = append(s.workers[:i], s.workers[i+1:]...)
					s.ghosts = append(s.ghosts, sw)
					break
				}
			}
		case actLocal:
			s.fatalf("local evaluation of lease %d without a local factory", a.l.id)
		}
	}
	s.f.acts = s.f.acts[:0]
	// The coordinator's stop of a released watch succeeds unless its
	// context expired: then its callback is pending or ran, and the watch
	// is not reused.
	for _, w := range s.f.released {
		if w.head != nil {
			s.fatalf("a watch was released with leases under it")
		}
		select {
		case <-w.done:
		default:
			s.f.spare = append(s.f.spare, w)
		}
		w.done = nil
	}
	s.f.released = s.f.released[:0]
	if err := conformance.CheckFleetMembers(s.f.reg, len(s.f.workers)); err != nil {
		s.fatalf("%v", err)
	}
	// No watch outlives its leases.
	for done, w := range s.f.watches {
		if w.head == nil || w.done != done {
			s.fatalf("an armed watch has no lease or another context's key")
		}
	}
	for _, sw := range s.workers {
		if len(sw.w.outbox) != 0 {
			s.fatalf("worker %s has %d frames in its outbox and no wake", sw.w.name, len(sw.w.outbox))
		}
		if len(sw.w.inflight) > sw.w.capacity {
			s.fatalf("worker %s holds %d leases, capacity %d", sw.w.name, len(sw.w.inflight), sw.w.capacity)
		}
		if len(s.f.queue) > 0 && len(sw.w.inflight) < sw.w.capacity {
			s.fatalf("%d leases queued while worker %s has a free slot", len(s.f.queue), sw.w.name)
		}
	}
}

func (s *schedule) sim(w *remoteWorker) *simWorker {
	for _, list := range [][]*simWorker{s.workers, s.ghosts} {
		for _, sw := range list {
			if sw.w == w {
				return sw
			}
		}
	}
	s.fatalf("action for unknown worker %s", w.name)
	return nil
}

func (s *schedule) connect(capacity int) {
	sw := &simWorker{w: newRemoteWorker(fmt.Sprintf("sim-%d", len(s.workers)+len(s.ghosts)), capacity, nopConn{})}
	s.workers = append(s.workers, sw)
	s.f.hello(s.now, sw.w)
	s.perform()
}

func (s *schedule) submit(job string) {
	x := float64(len(s.leases))
	sl := &simLease{want: simLoss(x), ctx: context.Background()}
	sl.l = &lease{job: job, index: uint64(len(s.leases)), point: map[string]WireFloat{"x": WireFloat(x)},
		cb: func(float64, error) { s.fatalf("a completion callback ran inside the state machine") }}
	if i := s.rng.Intn(len(s.ctxs) + 1); i < len(s.ctxs) {
		// An expired context is kept for one submission in two, which then
		// resolves at once.
		if s.ctxs[i] == nil || s.ctxs[i].Err() != nil && s.rng.Intn(2) == 0 {
			s.ctxs[i], s.cancels[i] = context.WithCancel(context.Background())
		}
		sl.ctx = s.ctxs[i]
		sl.ctxCanceled = sl.ctx.Err() != nil
	}
	s.leases[sl.l] = sl
	s.live = append(s.live, sl)
	s.f.watch(sl.l, sl.ctx)
	s.f.submit(s.now, sl.l)
	s.perform()
}

// expireCtx cancels shared context i; its watch's callback, if it has
// one, runs at a later event (fire).
func (s *schedule) expireCtx(i int) {
	ctx := s.ctxs[i]
	if ctx == nil || ctx.Err() != nil {
		return
	}
	s.cancels[i]()
	for _, sl := range s.live {
		if sl.ctx == ctx {
			sl.ctxCanceled = true
		}
	}
	if w := s.f.watches[ctx.Done()]; w != nil {
		s.pending = append(s.pending, w)
	}
}

// fire runs the pending callback of watch i, which its leases may all
// have left since its context expired.
func (s *schedule) fire(i int) {
	w := s.pending[i]
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
	s.f.expire(w)
	s.perform()
}

// receive is the worker's reader: a lease is evaluated (instantly) and
// answered; so is a ping.
func (s *schedule) receive(sw *simWorker) {
	fr := sw.down[0]
	sw.down = sw.down[1:]
	switch fr.Type {
	case TypeHeartbeat:
		sw.up = append(sw.up, &Frame{Type: TypeHeartbeat})
	case TypeLease:
		m := fr.Lease
		sw.up = append(sw.up, &Frame{Type: TypeResult, Result: &ResultMsg{
			ID: m.ID, Index: m.Index, Loss: WireFloat(simLoss(float64(m.Point["x"])))}})
	}
}

// arrive is the coordinator's reader getting sw's next frame.
func (s *schedule) arrive(sw *simWorker) {
	fr := sw.up[0]
	sw.up = sw.up[1:]
	s.f.frame(s.now, sw.w, fr)
	s.perform()
}

// holding lists the live leases sw holds: the ones a death of sw counts
// against.
func (s *schedule) holding(sw *simWorker) []*simLease {
	var held []*simLease
	for _, l := range sw.w.inflight {
		if !l.canceled {
			held = append(held, s.leases[l])
		}
	}
	return held
}

func (s *schedule) kill(sw *simWorker) {
	for _, sl := range s.holding(sw) {
		sl.deaths++
	}
	s.f.dead(s.now, sw.w, errors.New("killed"))
	s.perform()
}

// tick advances the timer; a worker it evicts for silence died holding
// its leases like any other.
func (s *schedule) tick() {
	held := make(map[*simWorker][]*simLease)
	for _, sw := range s.workers {
		held[sw] = s.holding(sw)
	}
	if deadline := s.f.tick(s.now); deadline != 0 && deadline <= s.now {
		s.fatalf("tick(%d) returned the past deadline %d", s.now, deadline)
	}
	for sw, leases := range held {
		if sw.w.dead {
			for _, sl := range leases {
				sl.deaths++
			}
		}
	}
	s.perform()
}

// placed checks that every unresolved lease is in exactly one place —
// the queue or one worker's in-flight table — unless its context
// expired while it was in flight (then it is resolved and merely
// occupies its slot), and that it is under its context's watch, which
// holds only unsettled leases of that context.
func (s *schedule) placed() {
	for done, w := range s.f.watches {
		for l := w.head; l != nil; l = l.wnext {
			if l.settled || l.watch != w || l.ctx.Done() != done {
				s.fatalf("lease %d is under a watch it does not belong to (settled=%v)", l.id, l.settled)
			}
		}
	}
	where := make(map[*lease]int)
	for _, l := range s.f.queue {
		where[l]++
		if l.canceled || l.settled {
			s.fatalf("lease %d is queued but canceled=%v settled=%v", l.id, l.canceled, l.settled)
		}
	}
	for _, sw := range s.workers {
		for _, l := range sw.w.inflight {
			where[l]++
		}
	}
	for _, sl := range s.live {
		if where[sl.l] != 1 {
			s.fatalf("unresolved lease %d is in %d places", sl.l.id, where[sl.l])
		}
		if done := sl.ctx.Done(); done != nil && (sl.l.watch == nil || s.f.watches[done] != sl.l.watch) {
			s.fatalf("unresolved lease %d is not under its context's watch", sl.l.id)
		}
	}
}

// fault is one random event of the schedule.
func (s *schedule) fault() {
	pick := func() *simWorker {
		if len(s.workers) == 0 {
			return nil
		}
		return s.workers[s.rng.Intn(len(s.workers))]
	}
	switch p := s.rng.Intn(100); {
	case p < 22:
		if len(s.live) < 48 {
			s.submit(simJobs[s.rng.Intn(len(simJobs))])
		}
	case p < 50: // a frame reaches a worker
		if sw := pick(); sw != nil && len(sw.down) > 0 {
			s.receive(sw)
		}
	case p < 81: // a frame reaches the coordinator
		if sw := pick(); sw != nil && len(sw.up) > 0 {
			s.arrive(sw)
		}
	case p < 83: // a dead worker's last frame lands after its death
		if len(s.ghosts) > 0 {
			if g := s.ghosts[s.rng.Intn(len(s.ghosts))]; len(g.up) > 0 {
				s.arrive(g)
			}
		}
	case p < 86:
		if sw := pick(); sw != nil {
			s.kill(sw)
		}
	case p < 89:
		if len(s.workers) < 4 {
			s.connect(1 + s.rng.Intn(4))
		}
	case p < 90:
		job := simJobs[1+s.rng.Intn(len(simJobs)-1)]
		for _, sl := range s.live {
			if sl.l.job == job {
				sl.jobCanceled = true
			}
		}
		s.f.cancelJob(job)
		s.perform()
	case p < 91:
		s.expireCtx(s.rng.Intn(len(s.ctxs)))
	case p < 93:
		if len(s.pending) > 0 {
			s.fire(s.rng.Intn(len(s.pending)))
		}
	default:
		s.now += s.rng.Int63n(2 * sec)
		s.tick()
	}
}

// TestFleetSeededSchedules drives a bare fleet — no goroutine, no
// connection, no clock — through seeded interleavings of submissions,
// frames delivered in both directions (each once and in order, as the
// transport promises, but at any pace, so workers also go silent and
// are evicted), a dead worker's last frames landing after its death,
// worker kills and connects, job cancels, expiries of the contexts
// leases share (each watch's callback running some events later, maybe
// after its leases have settled), and timer ticks, with quarantine on.
// After every event: no lease has resolved twice, no worker was dropped
// twice, no outbox is left without a wake, no lease waits while a slot
// is free, no watch outlives its leases, and the fleet's connected −
// lost workers are its members (conformance.CheckFleetMembers). At the end,
// after a fault-free drain on one fresh worker, every lease has
// resolved exactly once: with the loss of its own point, or
// ErrJobCanceled if its job was canceled, or its context's error, or
// the quarantine error after exactly maxRequeues+1 deaths.
func TestFleetSeededSchedules(t *testing.T) {
	seeds, events := 1000, 3400
	if testing.Short() || raceEnabled {
		seeds = 300
	}
	cfg := CoordinatorConfig{
		HeartbeatEvery:   2 * time.Second,
		HeartbeatTimeout: 10 * time.Second,
		DegradedGrace:    -1,
	}.withDefaults()
	var total, quarantined, canceled, expired int
	var duplicates, requeued, lost int64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		reg := obs.NewRegistry()
		s := &schedule{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)),
			f: newFleet(cfg, reg, 0), leases: make(map[*lease]*simLease)}
		s.connect(2)
		for s.step = 0; s.step < events; s.step++ {
			s.fault()
			if s.step%64 == 0 {
				s.placed()
			}
		}

		// Fault-free drain: the pending callbacks run, then one fresh
		// worker gets every frame delivered.
		for len(s.pending) > 0 {
			s.fire(0)
		}
		s.connect(4)
		for round := 0; len(s.live) > 0; round++ {
			if round > 200 {
				s.fatalf("%d leases still unresolved after a fault-free drain (first: lease %d)", len(s.live), s.live[0].l.id)
			}
			for _, sw := range append([]*simWorker(nil), s.workers...) {
				for len(sw.down) > 0 {
					s.receive(sw)
				}
				for len(sw.up) > 0 && sw.drops == 0 {
					s.arrive(sw)
				}
			}
			s.now += sec
			s.tick()
		}
		s.placed()
		if len(s.f.watches) != 0 {
			s.fatalf("%d watches outlived their leases", len(s.f.watches))
		}

		for _, sl := range s.leases {
			total++
			err := sl.out.err
			switch {
			case sl.resolved != 1:
				s.fatalf("lease %d resolved %d times", sl.l.id, sl.resolved)
			case err == nil:
				if sl.out.loss != sl.want {
					s.fatalf("lease %d resolved with loss %v, its point's loss is %v", sl.l.id, sl.out.loss, sl.want)
				}
			case err == ErrJobCanceled:
				canceled++
				if !sl.jobCanceled {
					s.fatalf("lease %d resolved with ErrJobCanceled but its job was never canceled", sl.l.id)
				}
			case err == context.Canceled:
				expired++
				if !sl.ctxCanceled {
					s.fatalf("lease %d resolved with context.Canceled but its context never expired", sl.l.id)
				}
			case strings.Contains(err.Error(), "quarantined"):
				quarantined++
				if sl.deaths != maxRequeues+1 {
					s.fatalf("lease %d quarantined after %d deaths, want exactly %d", sl.l.id, sl.deaths, maxRequeues+1)
				}
			default:
				s.fatalf("lease %d resolved with unexpected error %v", sl.l.id, err)
			}
			if err == nil || err == ErrJobCanceled || err == context.Canceled {
				if sl.deaths > maxRequeues {
					s.fatalf("lease %d survived %d deaths; it should have been quarantined at %d", sl.l.id, sl.deaths, maxRequeues+1)
				}
			}
		}
		duplicates += reg.Counter("dist.results_duplicate").Value()
		requeued += reg.Counter("dist.leases_requeued").Value()
		lost += reg.Counter("dist.workers_lost").Value()
	}
	if quarantined == 0 || canceled == 0 || expired == 0 || duplicates == 0 {
		t.Errorf("the schedules never exercised a rule: %d quarantined, %d job-canceled, %d expired, %d duplicate",
			quarantined, canceled, expired, duplicates)
	}
	t.Logf("%d seeds × %d events: %d leases, %d quarantined, %d job-canceled, %d expired, %d requeued, %d workers lost",
		seeds, events, total, quarantined, canceled, expired, requeued, lost)
}
