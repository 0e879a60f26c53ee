package dist

import (
	"context"
	"fmt"
	"sort"
	"time"

	"simcal/internal/obs"
	"simcal/internal/resilience"
)

// The lease lifecycle is one single-threaded state machine. Its methods
// are the events — submit (after watch), hello, frame, dead, tick,
// cancelJob, expire, resolve, close — and each one takes the current
// time as an argument, touches only fleet state, and appends whatever
// has to happen outside (running a completion callback, waking a
// worker's writer, closing a connection, evaluating locally, emitting a
// trace event, re-arming the timer) to an action list, and the context
// watches it released to another. No method reads a clock, takes a lock,
// blocks, starts a goroutine or performs I/O (watch only reads its
// context's Done channel and error, and hello looks up the worker's
// metric handles in the registry): the Coordinator holds its
// mutex while it feeds one event, then releases it and performs the
// actions. That is what lets fleet_test.go drive every rule — requeue,
// quarantine, eviction, degradation, cancel — through
// seeded fault schedules in simulated time, with no goroutine,
// connection or sleep. All times are Unix nanoseconds.

// leaseOutcome is the terminal state of one lease.
type leaseOutcome struct {
	loss float64
	err  error
}

// lease is one evaluation in flight through the distributed plane:
// queued, then leased to a worker, then resolved — or re-queued as many
// times as workers die holding it. It carries everything its resolution
// needs — the completion callback and its place under its context's
// watch — and the frame that leases it to a worker, so an evaluation
// costs the plane this one allocation. cb is set before the lease is
// submitted, and msg and frame as submit numbers it; none is written
// again, which is what lets a writer encode frame outside
// Coordinator.mu — as many times as the lease is requeued. Every other
// field is fleet state, guarded by Coordinator.mu.
type lease struct {
	id    uint64 // assigned by submit
	index uint64
	job   string // owning job ID; empty outside multi-job servers
	spec  []byte
	point map[string]WireFloat
	cb    func(loss float64, err error) // completion callback, run exactly once by the deliver action
	msg   LeaseMsg
	frame Frame // the lease frame: Type lease, Lease &msg

	// While the lease is unsettled and its context can expire: its
	// context, whose Err it resolves with when the context expires, and
	// its links in the list of the watch it is under.
	ctx          context.Context
	watch        *watch
	wprev, wnext *lease

	settled  bool // a deliver action has been emitted; later resolutions are dropped
	canceled bool // by its context or its job: never (re)assigned, never requeued
	requeues int

	enqueuedNS int64 // reset on requeue
	sentNS     int64 // stamped when handed to a worker
}

// remoteWorker is the fleet's view of one connected worker. Apart from
// the immutable identity fields and the writer's wake channel,
// everything is fleet state (guarded by Coordinator.mu).
type remoteWorker struct {
	name     string
	capacity int
	conn     Conn
	wake     chan struct{} // one slot: the writer has an outbox to drain (or a death to notice)

	dead bool
	// inflight is the idempotency authority: a lease leaves it exactly
	// once. Free slots are capacity − len(inflight).
	inflight map[uint64]*lease
	// outbox holds the frames the writer has yet to send, in order. No
	// event handler sends: a send can block on the synchronous loopback
	// pipe.
	outbox     []*Frame
	lastRecvNS int64 // when the last frame arrived
	nextPingNS int64 // when the next heartbeat is due

	// Clock-offset estimate (worker clock minus coordinator clock),
	// derived from heartbeat pings echoed in the worker's frames. The
	// estimate with the smallest round trip wins — the standard NTP
	// argument: less queueing delay, tighter bound.
	offsetNS  int64
	offsetRTT int64
	hasOffset bool

	// The worker's {worker=} series, resolved at hello: the fleet gauges
	// RefreshFleetGauges writes, and the evaluation series every result
	// frame from the worker moves.
	gInflight   *obs.Gauge
	gHbAge      *obs.Gauge
	gOffset     *obs.Gauge
	evalNS      *obs.Histogram
	evalsOK     *obs.Counter
	evalsFailed *obs.Counter
}

func newRemoteWorker(name string, capacity int, conn Conn) *remoteWorker {
	if capacity <= 0 {
		capacity = 1
	}
	return &remoteWorker{
		name: name, capacity: capacity, conn: conn,
		wake:     make(chan struct{}, 1),
		inflight: make(map[uint64]*lease),
	}
}

// watch is the expiry watch of one context, shared by every unsettled
// lease submitted under it: one context.AfterFunc per context, not per
// lease. The fleet's table keys it by the context's Done channel (a
// context value may not be comparable) and links its leases through
// lease.wprev/wnext, so it covers a lease wherever the lease is —
// queued, in flight, requeued or on its way to the local evaluator.
// resolve unlinks a settling lease; the watch is released — out of the
// table, onto fleet.released — with its last one, so it holds no context
// longer than its leases do. The Coordinator arms a new watch (stop) and
// stops released ones; a watch whose callback can no longer run is
// reused, with the callback bound once (fire), so a lease under a
// context of its own pays context.AfterFunc's objects and nothing more.
type watch struct {
	done <-chan struct{}
	head *lease      // the unsettled leases under the watch
	stop func() bool // context.AfterFunc's; set as the Coordinator arms the watch
	fire func()      // the AfterFunc callback: feeds the fleet expire(w)
}

// actionKind says what the plumbing must do for one action.
type actionKind uint8

const (
	actDeliver actionKind = iota // run l's callback with out
	actWake                      // wake w's writer: its outbox went non-empty
	actDrop                      // close w's connection (saying bye first if out.err is ErrCoordinatorClosed) and release its writer
	actLocal                     // evaluate l on the coordinator; name is the reason
	actTrace                     // emit trace event name with fields
	actMembers                   // the worker set changed: wake WaitForWorkers
	actArm                       // the earliest deadline moved up: wake the timer
)

// action is one side effect an event asks for.
type action struct {
	kind   actionKind
	l      *lease
	w      *remoteWorker
	out    leaseOutcome
	name   string
	fields obs.Fields
}

// fleet owns all lease state: the queue, every worker's in-flight
// table and outbox, the degradation state and the timer deadline.
type fleet struct {
	cfg CoordinatorConfig // defaults applied; Tracer and LocalFactory are only tested for nil
	reg *obs.Registry     // where each worker's {worker=} series live

	// queue is FIFO and holds live leases only: cancellation removes
	// its leases eagerly, so nothing skips entries at pop time.
	queue     []*lease
	workers   []*remoteWorker // registration order, which breaks assignment ties
	nextLease uint64
	closed    bool
	// degraded is set while the queue drains through the local
	// evaluator; emptySinceNS is when the fleet last became empty
	// (meaningful only while it is).
	degraded     bool
	emptySinceNS int64
	// armedNS is the deadline the timer sleeps until; 0 means none.
	armedNS int64

	acts []action // produced by the current event, drained by the caller

	// watches holds the armed expiry watches by their context's Done
	// channel; released holds the watches the current event released,
	// for the caller to stop; spare holds stopped watches for reuse.
	watches  map[<-chan struct{}]*watch
	released []*watch
	spare    []*watch

	// workersConnected − workersLost is len(workers): hello counts the
	// workers it appends, and dead, once per worker, the ones it removes.
	workersConnected  *obs.Counter
	workersLost       *obs.Counter
	leasesDispatched  *obs.Counter
	leasesRequeued    *obs.Counter
	leasesQuarantined *obs.Counter
	resultsDuplicate  *obs.Counter
	degradedGauge     *obs.Gauge
	queueWait         *obs.Histogram
	wireRTT           *obs.Histogram
}

// newFleet returns an empty fleet whose grace window opens at now. cfg
// must have its defaults applied (NewCoordinator does).
func newFleet(cfg CoordinatorConfig, reg *obs.Registry, now int64) *fleet {
	return &fleet{
		cfg:               cfg,
		reg:               reg,
		emptySinceNS:      now,
		watches:           make(map[<-chan struct{}]*watch),
		workersConnected:  reg.Counter("dist.workers_connected"),
		workersLost:       reg.Counter("dist.workers_lost"),
		leasesDispatched:  reg.Counter("dist.leases_dispatched"),
		leasesRequeued:    reg.Counter("dist.leases_requeued"),
		leasesQuarantined: reg.Counter("dist.leases_quarantined"),
		resultsDuplicate:  reg.Counter("dist.results_duplicate"),
		degradedGauge:     reg.Gauge("dist.degraded"),
		queueWait:         reg.Histogram("dist.lease_queue_wait_ns"),
		wireRTT:           reg.Histogram("dist.wire_rtt_ns"),
	}
}

func (f *fleet) emit(a action) { f.acts = append(f.acts, a) }

func (f *fleet) trace(name string, fields obs.Fields) {
	if f.cfg.Tracer != nil {
		f.emit(action{kind: actTrace, name: name, fields: fields})
	}
}

// arm asks for the timer to be woken when at is earlier than the
// deadline it is sleeping until.
func (f *fleet) arm(at int64) {
	if f.armedNS == 0 || at < f.armedNS {
		f.armedNS = at
		f.emit(action{kind: actArm})
	}
}

// resolve settles l: every way a lease can end — a worker's result,
// quarantine, the local fallback's answer, a job cancel, the context's
// expiry, the coordinator's shutdown — comes through here. The first
// resolution wins; a late one (a cancel racing a result) is dropped.
func (f *fleet) resolve(l *lease, out leaseOutcome) {
	if l.settled {
		return
	}
	l.settled = true
	if w := l.watch; w != nil {
		if l.wprev != nil {
			l.wprev.wnext = l.wnext
		} else {
			w.head = l.wnext
		}
		if l.wnext != nil {
			l.wnext.wprev = l.wprev
		}
		l.ctx, l.watch, l.wprev, l.wnext = nil, nil, nil, nil
		if w.head == nil {
			delete(f.watches, w.done)
			f.released = append(f.released, w)
		}
	}
	f.emit(action{kind: actDeliver, l: l, out: out})
}

// watch puts l, before it is submitted, under the expiry watch of ctx
// and returns the watch if it is new: the caller arms it, registering
// w.fire with context.AfterFunc(ctx) (binding w.fire first if it is
// nil). A context that cannot expire gets no watch, and a lease whose
// context has already expired resolves at once with its error (submit
// then numbers it and sends it nowhere).
func (f *fleet) watch(l *lease, ctx context.Context) (arm *watch) {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		l.canceled = true
		f.resolve(l, leaseOutcome{err: err})
		return nil
	}
	w := f.watches[done]
	if w == nil {
		if n := len(f.spare); n > 0 {
			w, f.spare[n-1], f.spare = f.spare[n-1], nil, f.spare[:n-1]
		} else {
			w = new(watch)
		}
		w.done = done
		f.watches[done] = w
		arm = w
	}
	l.ctx, l.watch, l.wnext = ctx, w, w.head
	if w.head != nil {
		w.head.wprev = l
	}
	w.head = l
	return arm
}

// submit enqueues a new lease and hands out whatever can be handed out.
func (f *fleet) submit(now int64, l *lease) {
	f.nextLease++
	l.id = f.nextLease
	l.msg = LeaseMsg{ID: l.id, Index: l.index, Spec: l.spec, Point: l.point}
	l.frame = Frame{Type: TypeLease, Lease: &l.msg}
	if l.settled {
		return // its context expired on the way here
	}
	if f.closed {
		f.resolve(l, leaseOutcome{err: ErrCoordinatorClosed})
		return
	}
	l.enqueuedNS = now
	f.queue = append(f.queue, l)
	f.assign(now)
}

// pop removes the queue's head in place, so a steady submit/assign
// cycle reuses one backing array.
func (f *fleet) pop() *lease {
	l := f.queue[0]
	n := copy(f.queue, f.queue[1:])
	f.queue[n] = nil
	f.queue = f.queue[:n]
	return l
}

// assign hands queued leases out, oldest first: each to the worker with
// the most free slots (the first registered on a tie) while any worker
// has one, or — once the fleet has been empty for DegradedGrace — to
// the local evaluator, so the calibration finishes instead of blocking
// forever.
func (f *fleet) assign(now int64) {
	for len(f.queue) > 0 {
		if len(f.workers) == 0 {
			if !f.canDegrade() {
				return
			}
			if at := f.emptySinceNS + int64(f.cfg.DegradedGrace); now < at {
				f.arm(at)
				return
			}
			if !f.degraded {
				f.degraded = true
				f.degradedGauge.Set(1)
				f.trace(obs.EventDistDegraded, obs.Fields{
					"state": "entered", "queued": len(f.queue),
					"idle_for_s": float64(now-f.emptySinceNS) / 1e9,
				})
			}
			f.emit(action{kind: actLocal, l: f.pop(), name: "degraded"})
			continue
		}
		var w *remoteWorker
		free := 0
		for _, cand := range f.workers {
			if n := cand.capacity - len(cand.inflight); n > free {
				w, free = cand, n
			}
		}
		if w == nil {
			return
		}
		l := f.pop()
		w.inflight[l.id] = l
		f.queueWait.Observe(now - l.enqueuedNS)
		f.leasesDispatched.Inc()
		l.sentNS = now
		f.push(w, &l.frame)
	}
}

func (f *fleet) canDegrade() bool {
	return f.cfg.LocalFactory != nil && f.cfg.DegradedGrace > 0
}

// push appends fr to w's outbox, waking the writer when the outbox was
// empty (a non-empty one already has a wake on its way).
func (f *fleet) push(w *remoteWorker, fr *Frame) {
	if len(w.outbox) == 0 {
		f.emit(action{kind: actWake, w: w})
	}
	w.outbox = append(w.outbox, fr)
}

// hello registers a worker that completed the handshake. Degraded mode
// ends the moment one does: returning workers are re-absorbed.
func (f *fleet) hello(now int64, w *remoteWorker) {
	series := func(name string) string { return obs.LabeledName(name, "worker", w.name) }
	w.gInflight = f.reg.Gauge(series("dist.worker_inflight"))
	w.gHbAge = f.reg.Gauge(series("dist.worker_heartbeat_age_ns"))
	w.gOffset = f.reg.Gauge(series("dist.worker_clock_offset_ns"))
	w.evalNS = f.reg.Histogram(series("worker.eval_ns"))
	w.evalsOK = f.reg.Counter(series("worker.evals_ok"))
	w.evalsFailed = f.reg.Counter(series("worker.evals_failed"))
	if f.closed {
		// Dead before dropped: the reader's failing Recv reports this
		// worker dead too, and must find nothing left to do.
		w.dead = true
		f.emit(action{kind: actDrop, w: w})
		return
	}
	w.lastRecvNS = now
	w.nextPingNS = now + int64(f.cfg.HeartbeatEvery)
	f.workers = append(f.workers, w)
	f.workersConnected.Inc()
	f.trace(obs.EventDistWorkerConnected, obs.Fields{
		"worker": w.name, "capacity": w.capacity, "active": len(f.workers),
	})
	if f.degraded {
		f.degraded = false
		f.degradedGauge.Set(0)
		f.trace(obs.EventDistDegraded, obs.Fields{"state": "exited"})
	}
	f.emit(action{kind: actMembers})
	f.arm(w.nextPingNS)
	f.assign(now)
}

// frame handles one inbound frame from w. Every frame refreshes the
// liveness stamp and may echo a clock-sync ping. A result moves w's
// evaluation series — the worker's own worker.eval_ns and outcome
// counts, rebuilt from the timing and error the frame carries — and
// resolves its lease; the series move before the deliver action, so a
// result's callback finds its evaluation counted.
func (f *fleet) frame(now int64, w *remoteWorker, fr *Frame) {
	w.lastRecvNS = now
	if t := fr.Telemetry; t != nil && t.EchoPingUnixNS != 0 && t.EchoRecvUnixNS != 0 && t.SentUnixNS != 0 {
		// t1 = our ping's send stamp, t2/t3 = the worker's receive and
		// send stamps, t4 = now. The smallest round trip wins.
		if off, rtt := ClockOffset(t.EchoPingUnixNS, t.EchoRecvUnixNS, t.SentUnixNS, now); rtt >= 0 && (!w.hasOffset || rtt < w.offsetRTT) {
			w.offsetNS, w.offsetRTT, w.hasOffset = off, rtt, true
		}
	}
	switch fr.Type {
	case TypeHeartbeat:
	case TypeResult:
		w.evalNS.Observe(fr.Result.DurNS)
		if fr.Result.Err != "" {
			w.evalsFailed.Inc()
		} else {
			w.evalsOK.Inc()
		}
		f.result(now, w, fr.Result)
	default:
		f.dead(now, w, fmt.Errorf("dist: protocol violation: %s frame from worker %s", fr.Type, w.name))
	}
}

// result completes the lease a result answers. A result for an id that
// is not in flight on w is dropped and counted: the transport delivers
// each frame once, but a worker's reader can hand over a frame it read
// just before a heartbeat eviction emptied w's in-flight table.
func (f *fleet) result(now int64, w *remoteWorker, res *ResultMsg) {
	l, ok := w.inflight[res.ID]
	if !ok {
		f.resultsDuplicate.Inc()
		return
	}
	delete(w.inflight, res.ID)
	f.wireRTT.Observe(now - l.sentNS)
	out := leaseOutcome{loss: float64(res.Loss)}
	if res.Err != "" {
		out.err = fmt.Errorf("dist: worker %s: %s", w.name, res.Err)
		if cls, known := resilience.ParseClass(res.Class); known && cls == resilience.Transient {
			// Reconstruct the classification so the calibrator's retry
			// machinery treats the remote failure like a local one.
			out.err = resilience.MarkTransient(out.err)
		}
	}
	f.traceWorkerEval(w, l, res)
	// Refill before deliver: the freed slot gets its next lease — and
	// the writer its wake — before the completion callback runs, so the
	// worker is busy again while the caller digests the result.
	f.assign(now)
	f.resolve(l, out)
}

// traceWorkerEval emits the worker's view of the evaluation that just
// resolved l: the timing the result carried on the worker's clock, joined
// with what the lease already knows. Exactly one per lease that a
// worker's answer resolves (a dropped one never gets here), and — being an
// action ahead of the deliver — in the trace before the evaluation's
// caller hears of the result. Once a clock-offset estimate for w exists
// the event also carries it and the start translated to this clock.
func (f *fleet) traceWorkerEval(w *remoteWorker, l *lease, res *ResultMsg) {
	if f.cfg.Tracer == nil {
		return
	}
	fields := obs.Fields{
		"lease": l.id, "index": l.index,
		"start_unix_ns": res.StartUnixNS, "dur_ns": res.DurNS,
		"worker": w.name, "source": "worker", "t_worker_unix_ns": res.StartUnixNS,
	}
	if f.cfg.TraceID != "" {
		fields["trace_id"] = f.cfg.TraceID
	}
	if l.job != "" {
		fields["job"] = l.job
	}
	if res.Err != "" {
		fields["err"] = res.Err
	} else {
		fields["loss"] = float64(res.Loss) // the tracer encodes a non-finite one itself
	}
	if w.hasOffset {
		fields["clock_offset_ns"] = w.offsetNS
		fields["t_unix_ns"] = res.StartUnixNS - w.offsetNS
	}
	f.trace(obs.EventDistWorkerEval, fields)
}

// dead removes w from the fleet and re-queues its in-flight leases, in
// lease-ID order, at the tail of the queue. The requeue is
// unconditional — independent of any resilience policy — because it is
// what makes a mid-batch worker kill invisible to the calibration
// trajectory. A lease that has already been re-queued maxRequeues times
// is quarantined as poison instead; one whose job or context was
// canceled, or that the coordinator closed under, is resolved rather
// than re-queued. Idempotent, and the only producer of the drop action.
func (f *fleet) dead(now int64, w *remoteWorker, cause error) {
	if w.dead {
		return
	}
	w.dead = true
	f.emit(action{kind: actDrop, w: w, out: leaseOutcome{err: cause}})
	for i, cand := range f.workers {
		if cand == w {
			f.workers = append(f.workers[:i], f.workers[i+1:]...)
			break
		}
	}
	if len(f.workers) == 0 {
		f.emptySinceNS = now // the DegradedGrace window opens
	}
	requeued := 0
	var quarantined []*lease
	for _, l := range w.sortedInflight() {
		switch {
		case f.closed:
			f.resolve(l, leaseOutcome{err: ErrCoordinatorClosed})
		case l.canceled:
			// By its job: this is the resolution it was waiting for. By
			// its context: already resolved, dropped in resolve.
			f.resolve(l, leaseOutcome{err: ErrJobCanceled})
		default:
			l.requeues++
			if l.requeues > maxRequeues {
				quarantined = append(quarantined, l)
				continue
			}
			l.enqueuedNS = now // queue wait restarts at the requeue
			f.queue = append(f.queue, l)
			requeued++
		}
	}
	clear(w.inflight)
	w.outbox = nil
	f.workersLost.Inc()
	f.leasesRequeued.Add(int64(requeued))
	f.trace(obs.EventDistWorkerDisconnected, obs.Fields{
		"worker": w.name, "active": len(f.workers), "requeued": requeued, "cause": cause.Error(),
	})
	if requeued > 0 {
		f.trace(obs.EventDistLeaseRequeued, obs.Fields{"worker": w.name, "count": requeued})
	}
	f.emit(action{kind: actMembers})
	for _, l := range quarantined {
		f.quarantine(l, w.name, cause)
	}
	f.assign(now)
}

// sortedInflight lists w's in-flight leases in lease-ID order: map
// iteration is randomized, and the requeue order must be replayable.
func (w *remoteWorker) sortedInflight() []*lease {
	ls := make([]*lease, 0, len(w.inflight))
	for _, l := range w.inflight {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].id < ls[j].id })
	return ls
}

// quarantine dead-letters one poison lease: it is never re-queued
// again. With a LocalFactory it is evaluated on the coordinator
// (deterministic simulators yield the loss a worker would have, so the
// trajectory is unchanged); without one it resolves with a
// deterministic error the calibrator will not retry.
func (f *fleet) quarantine(l *lease, worker string, cause error) {
	f.leasesQuarantined.Inc()
	f.trace(obs.EventDistLeaseQuarantined, obs.Fields{
		"lease": l.id, "index": l.index, "requeues": l.requeues,
		"worker": worker, "cause": cause.Error(), "local_eval": f.cfg.LocalFactory != nil,
	})
	if f.cfg.LocalFactory != nil {
		f.emit(action{kind: actLocal, l: l, name: "quarantine"})
		return
	}
	f.resolve(l, leaseOutcome{err: fmt.Errorf(
		"dist: lease %d quarantined after %d requeues (last worker %s: %v)",
		l.id, l.requeues, worker, cause)})
}

// tick is the timer's event: it evicts workers silent for longer than
// HeartbeatTimeout, queues the heartbeat pings that are due, drains to
// the local evaluator if the grace window has run out, and returns the
// deadline to sleep until (0: nothing is pending).
func (f *fleet) tick(now int64) int64 {
	f.armedNS = now // the timer is awake: nothing below needs to wake it
	for i := 0; i < len(f.workers); {
		w := f.workers[i]
		if silent := now - w.lastRecvNS; silent > int64(f.cfg.HeartbeatTimeout) {
			f.dead(now, w, fmt.Errorf("dist: worker %s silent for %s (heartbeat timeout %s)",
				w.name, time.Duration(silent), f.cfg.HeartbeatTimeout))
			continue // dead removed f.workers[i]
		}
		if now >= w.nextPingNS {
			// The heartbeat doubles as a clock-sync ping: the worker
			// echoes the stamp (plus its own receive and send times) in
			// its next telemetry frame, which closes the NTP loop.
			f.push(w, &Frame{Type: TypeHeartbeat, Heartbeat: &HeartbeatMsg{PingUnixNS: now}})
			w.nextPingNS = now + int64(f.cfg.HeartbeatEvery)
		}
		i++
	}
	f.assign(now)
	f.armedNS = f.deadline()
	return f.armedNS
}

// deadline is the earliest instant at which tick has something to do.
func (f *fleet) deadline() int64 {
	var at int64
	earliest := func(t int64) {
		if at == 0 || t < at {
			at = t
		}
	}
	for _, w := range f.workers {
		earliest(w.nextPingNS)
	}
	if len(f.workers) == 0 && len(f.queue) > 0 && f.canDegrade() {
		earliest(f.emptySinceNS + int64(f.cfg.DegradedGrace))
	}
	return at
}

// cancelJob abandons every lease belonging to job without disturbing
// other jobs': queued leases leave the queue and resolve at once with
// ErrJobCanceled, while in-flight leases finish on their worker and are
// never re-queued after a worker death, which resolves them with
// ErrJobCanceled instead. It returns the number of leases canceled.
func (f *fleet) cancelJob(job string) int {
	if job == "" {
		return 0
	}
	n := 0
	kept := f.queue[:0]
	for _, l := range f.queue {
		if l.job != job {
			kept = append(kept, l)
			continue
		}
		l.canceled = true
		n++
		f.resolve(l, leaseOutcome{err: ErrJobCanceled})
	}
	clear(f.queue[len(kept):])
	f.queue = kept
	for _, w := range f.workers {
		for _, l := range w.inflight {
			if l.job == job && !l.canceled {
				l.canceled = true
				n++
			}
		}
	}
	return n
}

// expire is the expiry of w's context: every lease still under w
// resolves now with its own context's error, and the queued ones leave
// the queue. An in-flight one keeps its slot until its worker answers or
// dies (the answer is dropped in resolve, and the death does not requeue
// it); one on its way to the local evaluator is skipped or its answer
// dropped. A watch released before its callback ran has no leases left.
func (f *fleet) expire(w *watch) {
	if w.head == nil {
		return
	}
	for w.head != nil {
		l := w.head
		l.canceled = true
		f.resolve(l, leaseOutcome{err: l.ctx.Err()})
	}
	kept := f.queue[:0]
	for _, l := range f.queue {
		if !l.canceled {
			kept = append(kept, l)
		}
	}
	clear(f.queue[len(kept):])
	f.queue = kept
}

// close shuts the fleet down: every queued and in-flight lease resolves
// with ErrCoordinatorClosed and every worker is dropped with a bye frame
// (its session ends cleanly). Leases submitted later resolve the same
// way.
func (f *fleet) close(now int64) {
	f.closed = true
	for _, l := range f.queue {
		f.resolve(l, leaseOutcome{err: ErrCoordinatorClosed})
	}
	f.queue = nil
	for len(f.workers) > 0 {
		f.dead(now, f.workers[0], ErrCoordinatorClosed)
	}
}
