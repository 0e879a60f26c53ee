package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/resilience"
)

// Default heartbeat cadence. The timeout spans several missed beats so
// one delayed frame never kills a healthy worker.
const (
	DefaultHeartbeatEvery   = 2 * time.Second
	DefaultHeartbeatTimeout = 10 * time.Second
)

// Chaos-hardening defaults.
const (
	// DefaultMaxRequeues is how many worker deaths one lease survives
	// before it is quarantined as poison. A lease that has killed (or
	// outlived) this many workers is overwhelmingly likely to be the
	// cause, not a bystander.
	DefaultMaxRequeues = 3
	// DefaultDegradedGrace is how long the fleet may be empty with
	// leases queued before the coordinator degrades to local
	// evaluation.
	DefaultDegradedGrace = 30 * time.Second
)

// ErrCoordinatorClosed is returned by evaluations still pending when
// the coordinator shuts down.
var ErrCoordinatorClosed = errors.New("dist: coordinator closed")

// ErrJobCanceled resolves leases purged by CancelJob: their job was
// canceled while they sat in the queue.
var ErrJobCanceled = errors.New("dist: job canceled")

// CoordinatorConfig configures a Coordinator. The zero value works:
// metrics and tracing are optional, the clock defaults to the wall
// clock, and heartbeats default to the package cadence.
type CoordinatorConfig struct {
	// Name identifies the coordinator in the hello handshake.
	Name string
	// Registry, when non-nil, receives the dist.* counters and gauges.
	Registry *obs.Registry
	// Tracer, when non-nil, receives worker lifecycle and requeue
	// events, plus the worker-side evaluation events shipped over
	// telemetry frames (re-emitted with worker, source, and
	// clock-offset fields — see absorbTelemetry). All of these are
	// additions to the trace, never reorderings of calibration events:
	// the calibration's own observer still sees remote evaluations
	// through the ordinary core.Simulator path, which is what lets a
	// distributed run's calibration trajectory stay bitwise identical
	// to a serial run's.
	Tracer *obs.Tracer
	// TraceID, when non-empty, is stamped on every lease so worker-side
	// trace events carry the run they belong to.
	TraceID string
	// Clock is the time source for heartbeats; nil means RealClock.
	// Tests inject a ManualClock so expiry tests never sleep.
	Clock Clock
	// HeartbeatEvery is how often idle connections are pinged.
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is how long a silent worker is tolerated before
	// it is declared dead and its leases re-queued.
	HeartbeatTimeout time.Duration
	// LeaseTimeout, when positive, is the per-evaluation deadline sent
	// with every lease; the worker answers an expired lease with a
	// transient failure. Zero sends no deadline.
	LeaseTimeout time.Duration

	// LocalFactory, when non-nil, builds simulators on the coordinator
	// itself, enabling graceful degradation: quarantined (poison)
	// leases and — once the fleet has been empty past DegradedGrace —
	// queued leases are evaluated locally instead of waiting on
	// workers. Deterministic simulators make the local loss bitwise
	// equal to a worker's, so falling back never perturbs the
	// calibration trajectory. nil disables local evaluation: a
	// quarantined lease then resolves with a deterministic error, and
	// an empty fleet blocks until a worker returns.
	LocalFactory Factory
	// MaxRequeues caps how many times one lease may be re-queued after
	// worker deaths before it is quarantined as poison instead of
	// ping-ponging a worker-killing point across the fleet forever.
	// Zero means DefaultMaxRequeues; negative disables quarantine
	// (unbounded requeues, the pre-hardening behavior).
	MaxRequeues int
	// DegradedGrace is how long the fleet may be empty with leases
	// queued before the coordinator enters degraded mode and drains
	// the queue through LocalFactory. Zero means DefaultDegradedGrace;
	// negative disables degradation. Workers that return are
	// re-absorbed: degraded mode ends the moment one registers.
	DegradedGrace time.Duration
	// LocalConcurrency bounds concurrent local evaluations (degraded
	// drain and quarantine fallback combined). Zero means GOMAXPROCS.
	LocalConcurrency int
	// ResendAfter, when positive, redelivers a dispatched lease whose
	// result has not arrived within the window, bumping its attempt
	// counter. Off by default: TCP never drops frames, so redelivery
	// only matters when a lossy transport (internal/dist/chaos) sits
	// between coordinator and workers — there, a dropped lease or
	// result frame would otherwise wedge the lease until the worker's
	// heartbeat eviction. Workers deduplicate lease IDs, so a
	// redelivered lease is never evaluated twice in one session.
	ResendAfter time.Duration
}

// leaseOutcome is the terminal state of one lease.
type leaseOutcome struct {
	loss float64
	err  error
}

// lease is one evaluation in flight through the distributed plane:
// queued, then leased to a worker, then resolved — or re-queued as many
// times as workers die holding it. It carries everything its resolution
// needs — the completion callback and the context watcher's state — so
// an evaluation costs the plane this one allocation.
type lease struct {
	id    uint64
	index uint64
	job   string // owning job ID; empty outside multi-job servers
	spec  json.RawMessage
	point map[string]WireFloat
	cb    func(loss float64, err error) // completion callback, invoked exactly once by deliver

	mu        sync.Mutex  // guards settled and stopWatch
	settled   bool        // deliver has run
	stopWatch func() bool // releases the context watcher; nil until RunAsync registered it

	canceled bool // guarded by Coordinator.mu
	requeues int  // guarded by Coordinator.mu
	attempt  int  // guarded by Coordinator.mu; -1 until first dispatch

	enqueuedNS int64 // guarded by Coordinator.mu; reset on requeue
	sentNS     int64 // guarded by Coordinator.mu; stamped at dispatch
}

// deliver resolves the lease: every resolution path (worker result,
// quarantine, local fallback, job cancel, coordinator close, context
// expiry) funnels through here. Exactly one delivery wins; late results
// (a redelivery racing the original answer, a cancel racing a resolve,
// a result racing the context's expiry) are dropped here instead of
// each call site reasoning about double sends. The winner also releases
// the context watcher. Must be called without Coordinator.mu held: the
// callback runs inline.
func (l *lease) deliver(out leaseOutcome) {
	l.mu.Lock()
	if l.settled {
		l.mu.Unlock()
		return
	}
	l.settled = true
	stop := l.stopWatch
	l.mu.Unlock()
	if stop != nil {
		stop()
	}
	l.cb(out.loss, out.err)
}

// remoteWorker is the coordinator's view of one connected worker.
type remoteWorker struct {
	id       uint64
	name     string
	capacity int
	conn     Conn
	// slots is a token semaphore bounding in-flight leases to capacity,
	// which also guarantees the dispatcher can never deadlock a
	// synchronous loopback pipe: the worker's reader always drains.
	slots    chan struct{}
	deadCh   chan struct{}
	dead     bool              // guarded by Coordinator.mu
	inflight map[uint64]*lease // guarded by Coordinator.mu
	lastRecv atomic.Int64      // clock nanos of the last frame received

	// Clock-offset estimate (worker clock minus coordinator clock),
	// derived from heartbeat pings echoed in telemetry frames. The
	// estimate with the smallest round trip wins — the standard NTP
	// argument: less queueing delay, tighter bound. Guarded by
	// Coordinator.mu.
	offsetNS  int64
	offsetRTT int64
	hasOffset bool

	// Per-worker fleet gauges; nil without a Registry.
	gInflight *obs.Gauge
	gHbAge    *obs.Gauge
	gOffset   *obs.Gauge
}

// Coordinator shards loss evaluations across remote workers. It owns a
// FIFO lease queue fed by RemoteEvaluator.Run calls; per-worker
// dispatchers pull from the queue, bounded by each worker's capacity.
// Results resolve leases by ID; a dead worker's in-flight leases are
// re-queued unconditionally, so — because the calibration core merges
// samples index-addressed — the trajectory is identical no matter how
// many workers serve it or die mid-batch.
type Coordinator struct {
	cfg   CoordinatorConfig
	clock Clock

	mu             sync.Mutex
	cond           *sync.Cond
	queue          []*lease
	workers        map[uint64]*remoteWorker
	workersChanged chan struct{}
	closed         bool
	// degraded and fleetEmptySince drive graceful degradation: the
	// instant the last worker left (zero while any worker is
	// connected), and whether the degradation loop is currently
	// draining the queue locally. Guarded by mu.
	degraded        bool
	fleetEmptySince time.Time

	closedCh   chan struct{}
	queueKick  chan struct{} // buffered 1: wakes the degradation loop on enqueue
	nextLease  atomic.Uint64
	nextWorker atomic.Uint64

	// localSims caches LocalFactory-built simulators by spec, exactly
	// as workers cache theirs. localSem bounds concurrent local
	// evaluations; localCtx cancels them at Close.
	localMu     sync.Mutex
	localSims   map[string]core.Simulator
	localSem    chan struct{}
	localCtx    context.Context
	localCancel context.CancelFunc

	workersConnected  *obs.Counter
	workersLost       *obs.Counter
	leasesDispatched  *obs.Counter
	leasesRequeued    *obs.Counter
	leasesQuarantined *obs.Counter
	leasesRedelivered *obs.Counter
	localEvals        *obs.Counter
	resultsStale      *obs.Counter
	resultsDuplicate  *obs.Counter
	framesRx          *obs.Counter
	framesTx          *obs.Counter
	workersActive     *obs.Gauge
	degradedGauge     *obs.Gauge
	queueWait         *obs.Histogram
	wireRTT           *obs.Histogram
	requeueDepth      *obs.Histogram
}

// NewCoordinator returns a Coordinator ready to Serve a listener.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if cfg.MaxRequeues == 0 {
		cfg.MaxRequeues = DefaultMaxRequeues
	}
	if cfg.DegradedGrace == 0 {
		cfg.DegradedGrace = DefaultDegradedGrace
	}
	if cfg.LocalConcurrency <= 0 {
		cfg.LocalConcurrency = runtime.GOMAXPROCS(0)
	}
	c := &Coordinator{
		cfg:             cfg,
		clock:           cfg.Clock,
		workers:         make(map[uint64]*remoteWorker),
		workersChanged:  make(chan struct{}),
		closedCh:        make(chan struct{}),
		queueKick:       make(chan struct{}, 1),
		fleetEmptySince: cfg.Clock.Now(),
	}
	c.cond = sync.NewCond(&c.mu)
	c.localSem = make(chan struct{}, cfg.LocalConcurrency)
	c.localCtx, c.localCancel = context.WithCancel(context.Background())
	if cfg.LocalFactory != nil {
		c.localSims = make(map[string]core.Simulator)
	}
	if reg := cfg.Registry; reg != nil {
		c.workersConnected = reg.Counter("dist.workers_connected")
		c.workersLost = reg.Counter("dist.workers_lost")
		c.leasesDispatched = reg.Counter("dist.leases_dispatched")
		c.leasesRequeued = reg.Counter("dist.leases_requeued")
		c.leasesQuarantined = reg.Counter("dist.leases_quarantined")
		c.leasesRedelivered = reg.Counter("dist.leases_redelivered")
		c.localEvals = reg.Counter("dist.local_evals")
		c.resultsStale = reg.Counter("dist.results_stale")
		c.resultsDuplicate = reg.Counter("dist.results_duplicate")
		c.framesRx = reg.Counter("dist.frames_rx")
		c.framesTx = reg.Counter("dist.frames_tx")
		c.workersActive = reg.Gauge("dist.workers_active")
		c.degradedGauge = reg.Gauge("dist.degraded")
		c.queueWait = reg.Histogram("dist.lease_queue_wait_ns")
		c.wireRTT = reg.Histogram("dist.wire_rtt_ns")
		c.requeueDepth = reg.Histogram("dist.lease_requeues")
	} else {
		c.workersConnected = new(obs.Counter)
		c.workersLost = new(obs.Counter)
		c.leasesDispatched = new(obs.Counter)
		c.leasesRequeued = new(obs.Counter)
		c.leasesQuarantined = new(obs.Counter)
		c.leasesRedelivered = new(obs.Counter)
		c.localEvals = new(obs.Counter)
		c.resultsStale = new(obs.Counter)
		c.resultsDuplicate = new(obs.Counter)
		c.framesRx = new(obs.Counter)
		c.framesTx = new(obs.Counter)
		c.workersActive = new(obs.Gauge)
		c.degradedGauge = new(obs.Gauge)
		c.queueWait = new(obs.Histogram)
		c.wireRTT = new(obs.Histogram)
		c.requeueDepth = new(obs.Histogram)
	}
	if cfg.LocalFactory != nil && cfg.DegradedGrace > 0 {
		go c.degradationLoop()
	}
	return c
}

// Serve accepts worker connections from l until the listener fails or
// the coordinator closes. Run it in its own goroutine; it returns nil
// on orderly shutdown.
func (c *Coordinator) Serve(l Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-c.closedCh:
				return nil
			default:
			}
			return err
		}
		go c.handle(conn)
	}
}

// recvTimeout reads one frame from conn, closing the connection if
// nothing arrives within d. The handshake has no heartbeat protection
// yet, so without this a dropped hello frame would hang both sides
// forever. The spawned Recv drains into the buffered channel even
// after a timeout fires.
func recvTimeout(conn Conn, clock Clock, d time.Duration) (*Frame, error) {
	type recvOut struct {
		f   *Frame
		err error
	}
	ch := make(chan recvOut, 1)
	go func() {
		f, err := conn.Recv()
		ch <- recvOut{f: f, err: err}
	}()
	select {
	case o := <-ch:
		return o.f, o.err
	case <-clock.After(d):
		conn.Close()
		return nil, fmt.Errorf("dist: handshake: no frame within %s", d)
	}
}

// handle performs the hello handshake and registers the worker.
func (c *Coordinator) handle(conn Conn) {
	f, err := recvTimeout(conn, c.clock, c.cfg.HeartbeatTimeout)
	if err != nil {
		conn.Close()
		return
	}
	c.framesRx.Inc()
	if f.Type != TypeHello {
		conn.Close()
		return
	}
	if err := conn.Send(&Frame{Type: TypeHello, Hello: &HelloMsg{Name: c.cfg.Name}}); err != nil {
		conn.Close()
		return
	}
	c.framesTx.Inc()
	capacity := f.Hello.Capacity
	if capacity <= 0 {
		capacity = 1
	}
	w := &remoteWorker{
		id:       c.nextWorker.Add(1),
		name:     f.Hello.Name,
		capacity: capacity,
		conn:     conn,
		slots:    make(chan struct{}, capacity),
		deadCh:   make(chan struct{}),
		inflight: make(map[uint64]*lease),
	}
	if w.name == "" {
		w.name = fmt.Sprintf("worker-%d", w.id)
	}
	if reg := c.cfg.Registry; reg != nil {
		w.gInflight = reg.Gauge(obs.LabeledName("dist.worker_inflight", "worker", w.name))
		w.gHbAge = reg.Gauge(obs.LabeledName("dist.worker_heartbeat_age_ns", "worker", w.name))
		w.gOffset = reg.Gauge(obs.LabeledName("dist.worker_clock_offset_ns", "worker", w.name))
	}
	for i := 0; i < capacity; i++ {
		w.slots <- struct{}{}
	}
	w.lastRecv.Store(c.clock.Now().UnixNano())
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.workers[w.id] = w
	active := len(c.workers)
	c.fleetEmptySince = time.Time{} // the fleet is no longer empty
	close(c.workersChanged)
	c.workersChanged = make(chan struct{})
	c.mu.Unlock()
	c.workersConnected.Inc()
	c.workersActive.Set(float64(active))
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.EventDistWorkerConnected, obs.Fields{
			"worker": w.name, "capacity": capacity, "active": active,
		})
	}
	go c.readLoop(w)
	go c.dispatchLoop(w)
	go c.heartbeatLoop(w)
	if c.cfg.ResendAfter > 0 {
		go c.redeliverLoop(w)
	}
}

// readLoop is the worker connection's dedicated reader. Every inbound
// frame refreshes the liveness stamp; results resolve their leases; any
// read error declares the worker dead.
func (c *Coordinator) readLoop(w *remoteWorker) {
	for {
		f, err := w.conn.Recv()
		if err != nil {
			c.workerDead(w, err)
			return
		}
		c.framesRx.Inc()
		w.lastRecv.Store(c.clock.Now().UnixNano())
		switch f.Type {
		case TypeHeartbeat:
		case TypeTelemetry:
			c.absorbTelemetry(w, f.Telemetry)
		case TypeResult:
			c.resolve(w, f.Result)
		default:
			c.workerDead(w, fmt.Errorf("dist: protocol violation: %s frame from worker %s", f.Type, w.name))
			return
		}
	}
}

// dispatchLoop pulls queued leases and sends them to w, holding one
// capacity slot per in-flight lease.
func (c *Coordinator) dispatchLoop(w *remoteWorker) {
	for {
		select {
		case <-w.slots:
		case <-w.deadCh:
			return
		case <-c.closedCh:
			return
		}
		l, attempt := c.next(w)
		if l == nil {
			return
		}
		msg := &LeaseMsg{ID: l.id, Index: l.index, Job: l.job, Spec: l.spec, Point: l.point, TraceID: c.cfg.TraceID, Attempt: attempt}
		if c.cfg.LeaseTimeout > 0 {
			msg.TimeoutMS = c.cfg.LeaseTimeout.Milliseconds()
		}
		if err := w.conn.Send(&Frame{Type: TypeLease, Lease: msg}); err != nil {
			// The lease is already registered in-flight, so workerDead
			// re-queues it for another worker.
			c.workerDead(w, err)
			return
		}
		c.framesTx.Inc()
		c.leasesDispatched.Inc()
	}
}

// next blocks until a live lease is available for w and registers it
// in-flight, or returns nil when w dies or the coordinator closes. The
// second return is the attempt number to stamp on the lease frame.
func (c *Coordinator) next(w *remoteWorker) (*lease, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if w.dead || c.closed {
			return nil, 0
		}
		for len(c.queue) > 0 && c.queue[0].canceled {
			c.queue = c.queue[1:]
		}
		if len(c.queue) > 0 {
			l := c.queue[0]
			c.queue = c.queue[1:]
			w.inflight[l.id] = l
			now := c.clock.Now().UnixNano()
			if l.enqueuedNS != 0 {
				c.queueWait.Observe(now - l.enqueuedNS)
			}
			l.sentNS = now
			l.attempt++
			return l, l.attempt
		}
		c.cond.Wait()
	}
}

// resolve completes the lease a result answers. The in-flight table is
// the idempotency authority: a lease leaves it exactly once, so a
// result racing a requeue — or the duplicate answer a worker re-sends
// after a lease redelivery — can never double-count. Results for
// unknown lease IDs (e.g. from a worker declared dead between its send
// and our receive, or a duplicate of an already-resolved lease) are
// dropped and counted.
func (c *Coordinator) resolve(w *remoteWorker, res *ResultMsg) {
	c.mu.Lock()
	l, ok := w.inflight[res.ID]
	if ok {
		delete(w.inflight, res.ID)
		if l.sentNS != 0 {
			c.wireRTT.Observe(c.clock.Now().UnixNano() - l.sentNS)
		}
		if res.Attempt != l.attempt {
			// An answer to an older attempt of a since-redelivered lease.
			// Deterministic simulators make every attempt's loss identical,
			// so it still resolves the lease; the counter records that the
			// redelivery raced the original answer.
			c.resultsStale.Inc()
		}
	}
	c.mu.Unlock()
	if !ok {
		c.resultsDuplicate.Inc()
		return
	}
	select {
	case w.slots <- struct{}{}:
	default:
	}
	out := leaseOutcome{loss: float64(res.Loss)}
	if res.Err != "" {
		err := fmt.Errorf("dist: worker %s: %s", w.name, res.Err)
		if cls, known := resilience.ParseClass(res.Class); known && cls == resilience.Transient {
			// Reconstruct the classification so the calibrator's retry
			// machinery treats the remote failure like a local one.
			err = resilience.MarkTransient(err)
		}
		out.err = err
	}
	l.deliver(out)
}

// heartbeatLoop pings w every HeartbeatEvery and declares it dead after
// HeartbeatTimeout of silence.
func (c *Coordinator) heartbeatLoop(w *remoteWorker) {
	for {
		select {
		case <-c.clock.After(c.cfg.HeartbeatEvery):
		case <-w.deadCh:
			return
		case <-c.closedCh:
			return
		}
		silent := time.Duration(c.clock.Now().UnixNano() - w.lastRecv.Load())
		if silent > c.cfg.HeartbeatTimeout {
			c.workerDead(w, fmt.Errorf("dist: worker %s silent for %s (heartbeat timeout %s)",
				w.name, silent, c.cfg.HeartbeatTimeout))
			return
		}
		// The heartbeat doubles as a clock-sync ping: the worker echoes
		// the stamp (plus its own receive and send times) in its next
		// telemetry frame, and absorbTelemetry closes the NTP loop.
		hb := &HeartbeatMsg{PingUnixNS: c.clock.Now().UnixNano()}
		if err := w.conn.Send(&Frame{Type: TypeHeartbeat, Heartbeat: hb}); err != nil {
			c.workerDead(w, err)
			return
		}
		c.framesTx.Inc()
	}
}

// redeliverLoop re-sends leases that have been in flight on w longer
// than ResendAfter without an answer, bumping their attempt counter.
// Only started when ResendAfter is positive — i.e. when a lossy
// transport may have dropped the lease or its result. The worker
// deduplicates by lease ID: a redelivery of a lease it is still
// running is ignored, and one it already finished is answered from its
// completed-result cache.
func (c *Coordinator) redeliverLoop(w *remoteWorker) {
	period := c.cfg.ResendAfter / 2
	if period <= 0 {
		period = c.cfg.ResendAfter
	}
	for {
		select {
		case <-c.clock.After(period):
		case <-w.deadCh:
			return
		case <-c.closedCh:
			return
		}
		now := c.clock.Now().UnixNano()
		var msgs []*LeaseMsg
		c.mu.Lock()
		for _, l := range w.inflight {
			if l.sentNS == 0 || now-l.sentNS < int64(c.cfg.ResendAfter) {
				continue
			}
			l.attempt++
			l.sentNS = now
			msg := &LeaseMsg{ID: l.id, Index: l.index, Job: l.job, Spec: l.spec, Point: l.point, TraceID: c.cfg.TraceID, Attempt: l.attempt}
			if c.cfg.LeaseTimeout > 0 {
				msg.TimeoutMS = c.cfg.LeaseTimeout.Milliseconds()
			}
			msgs = append(msgs, msg)
		}
		c.mu.Unlock()
		// Map iteration is randomized; send in lease-ID order so the
		// frame sequence under a fixed chaos seed stays replayable.
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].ID < msgs[j].ID })
		for _, msg := range msgs {
			if err := w.conn.Send(&Frame{Type: TypeLease, Lease: msg}); err != nil {
				c.workerDead(w, err)
				return
			}
			c.framesTx.Inc()
			c.leasesRedelivered.Inc()
		}
	}
}

// absorbTelemetry merges one worker telemetry frame into the
// coordinator's registry and trace. Metric names gain a worker label
// (worker.eval_ns becomes `worker.eval_ns{worker="w1"}`): counters and
// histograms arrive as deltas and are added, gauges arrive absolute
// and are set. If the frame echoes a heartbeat ping, the NTP-style
// clock offset is computed — offset = ((t2-t1)+(t3-t4))/2, rtt =
// (t4-t1)-(t3-t2) — and the estimate with the smallest RTT is kept.
// Trace events are re-emitted into the run's trace tagged with the
// worker name, source="worker", the raw worker timestamp, and (once an
// offset exists) the coordinator-clock translation.
func (c *Coordinator) absorbTelemetry(w *remoteWorker, t *TelemetryMsg) {
	now := c.clock.Now().UnixNano()
	if reg := c.cfg.Registry; reg != nil {
		for name, d := range t.Counters {
			reg.Counter(obs.LabeledName(name, "worker", w.name)).Add(d)
		}
		for name, v := range t.Gauges {
			reg.Gauge(obs.LabeledName(name, "worker", w.name)).Set(float64(v))
		}
		for name, d := range t.Hists {
			reg.Histogram(obs.LabeledName(name, "worker", w.name)).AbsorbDelta(d)
		}
	}
	var offset int64
	var haveOffset bool
	if t.EchoPingUnixNS != 0 && t.EchoRecvUnixNS != 0 && t.SentUnixNS != 0 {
		t1, t2, t3, t4 := t.EchoPingUnixNS, t.EchoRecvUnixNS, t.SentUnixNS, now
		off, rtt := ClockOffset(t1, t2, t3, t4)
		if rtt >= 0 {
			c.mu.Lock()
			if !w.hasOffset || rtt < w.offsetRTT {
				w.offsetNS, w.offsetRTT, w.hasOffset = off, rtt, true
			}
			offset, haveOffset = w.offsetNS, true
			c.mu.Unlock()
			if w.gOffset != nil {
				w.gOffset.Set(float64(offset))
			}
		}
	}
	if !haveOffset {
		c.mu.Lock()
		offset, haveOffset = w.offsetNS, w.hasOffset
		c.mu.Unlock()
	}
	if c.cfg.Tracer == nil {
		return
	}
	for _, ev := range t.Events {
		fields := make(obs.Fields, len(ev.Fields)+5)
		for k, v := range ev.Fields {
			fields[k] = v
		}
		fields["worker"] = w.name
		fields["source"] = "worker"
		fields["t_worker_unix_ns"] = ev.TUnixNS
		if haveOffset {
			fields["clock_offset_ns"] = offset
			fields["t_unix_ns"] = ev.TUnixNS - offset
		}
		c.cfg.Tracer.Emit(ev.Name, fields)
	}
}

// ClockOffset computes the NTP-style offset (worker clock minus
// coordinator clock) and round trip from one ping exchange: t1 is the
// coordinator's send stamp, t2 the worker's receive stamp, t3 the
// worker's reply-send stamp, t4 the coordinator's receive stamp.
func ClockOffset(t1, t2, t3, t4 int64) (offset, rtt int64) {
	offset = ((t2 - t1) + (t3 - t4)) / 2
	rtt = (t4 - t1) - (t3 - t2)
	return offset, rtt
}

// workerDead removes w from the pool and re-queues its in-flight
// leases. The requeue is unconditional — independent of any resilience
// policy — because it is what makes a mid-batch worker kill invisible
// to the calibration trajectory. A lease that has already been
// re-queued MaxRequeues times is quarantined as poison instead: it
// falls back to the local evaluator (or a deterministic error without
// one) rather than ping-ponging a worker-killing point across the
// fleet forever. Idempotent; safe from any goroutine.
func (c *Coordinator) workerDead(w *remoteWorker, cause error) {
	c.mu.Lock()
	if w.dead {
		c.mu.Unlock()
		return
	}
	w.dead = true
	close(w.deadCh)
	delete(c.workers, w.id)
	active := len(c.workers)
	if active == 0 {
		c.fleetEmptySince = c.clock.Now() // the degraded-grace window opens
	}
	requeued := 0
	var quarantined, abandoned []*lease
	abandonErr := ErrJobCanceled
	if c.closed {
		abandonErr = ErrCoordinatorClosed
	}
	requeueNS := c.clock.Now().UnixNano()
	for id, l := range w.inflight {
		delete(w.inflight, id)
		if c.closed || l.canceled {
			abandoned = append(abandoned, l)
			continue
		}
		l.requeues++
		c.requeueDepth.Observe(int64(l.requeues))
		l.sentNS = 0
		if c.cfg.MaxRequeues >= 0 && l.requeues > c.cfg.MaxRequeues {
			quarantined = append(quarantined, l)
			continue
		}
		l.enqueuedNS = requeueNS // queue wait restarts at the requeue
		c.queue = append(c.queue, l)
		requeued++
	}
	close(c.workersChanged)
	c.workersChanged = make(chan struct{})
	c.cond.Broadcast()
	c.mu.Unlock()
	// Deterministic quarantine order (map iteration is randomized).
	sort.Slice(quarantined, func(i, j int) bool { return quarantined[i].id < quarantined[j].id })
	w.conn.Close()
	c.workersLost.Inc()
	c.workersActive.Set(float64(active))
	c.leasesRequeued.Add(int64(requeued))
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.EventDistWorkerDisconnected, obs.Fields{
			"worker": w.name, "active": active, "requeued": requeued, "cause": cause.Error(),
		})
		if requeued > 0 {
			c.cfg.Tracer.Emit(obs.EventDistLeaseRequeued, obs.Fields{
				"worker": w.name, "count": requeued,
			})
		}
	}
	for _, l := range quarantined {
		c.quarantine(l, w.name, cause)
	}
	// Leases this death drops instead of re-queueing still owe their
	// waiter a resolution: the coordinator closed under them, or their
	// job was canceled while they were in flight (a lease canceled by its
	// own context is already resolved; deliver drops the duplicate).
	for _, l := range abandoned {
		l.deliver(leaseOutcome{err: abandonErr})
	}
}

// quarantine dead-letters one poison lease: it is never re-queued
// again. With a LocalFactory the lease is evaluated on the coordinator
// (deterministic simulators yield the same loss a worker would have,
// so the calibration trajectory is unchanged); without one it resolves
// with a deterministic error the calibrator will not retry.
func (c *Coordinator) quarantine(l *lease, worker string, cause error) {
	c.mu.Lock()
	requeues := l.requeues
	c.mu.Unlock()
	c.leasesQuarantined.Inc()
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.EventDistLeaseQuarantined, obs.Fields{
			"lease":      l.id,
			"index":      l.index,
			"requeues":   requeues,
			"worker":     worker,
			"cause":      cause.Error(),
			"local_eval": c.cfg.LocalFactory != nil,
		})
	}
	if c.cfg.LocalFactory == nil {
		l.deliver(leaseOutcome{err: fmt.Errorf(
			"dist: lease %d quarantined after %d requeues (last worker %s: %v)",
			l.id, requeues, worker, cause)})
		return
	}
	go c.evalLocal(l, "quarantine")
}

// degradationLoop implements graceful degradation: once the fleet has
// been empty for DegradedGrace with leases queued, it drains the queue
// through the local evaluator so the calibration finishes instead of
// blocking forever. The moment a worker registers, the loop stops
// popping and dispatch resumes on the fleet — returning workers are
// re-absorbed with no intervention. Runs for the coordinator's
// lifetime when a LocalFactory is configured.
func (c *Coordinator) degradationLoop() {
	grace := c.cfg.DegradedGrace
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		fleetEmpty := len(c.workers) == 0
		var idleFor time.Duration
		if fleetEmpty && !c.fleetEmptySince.IsZero() {
			idleFor = c.clock.Now().Sub(c.fleetEmptySince)
		}
		for len(c.queue) > 0 && c.queue[0].canceled {
			c.queue = c.queue[1:]
		}
		queued := len(c.queue)
		var l *lease
		var entered, exited bool
		if fleetEmpty && idleFor >= grace && queued > 0 {
			l = c.queue[0]
			c.queue = c.queue[1:]
			if !c.degraded {
				c.degraded = true
				entered = true
			}
		} else if !fleetEmpty && c.degraded {
			c.degraded = false
			exited = true
		}
		changed := c.workersChanged
		c.mu.Unlock()
		if entered {
			c.degradedGauge.Set(1)
			if c.cfg.Tracer != nil {
				c.cfg.Tracer.Emit(obs.EventDistDegraded, obs.Fields{
					"state": "entered", "queued": queued, "idle_for_s": idleFor.Seconds(),
				})
			}
		}
		if exited {
			c.degradedGauge.Set(0)
			if c.cfg.Tracer != nil {
				c.cfg.Tracer.Emit(obs.EventDistDegraded, obs.Fields{"state": "exited"})
			}
		}
		if l != nil {
			// evalLocal gates on localSem, so a burst of queued leases
			// drains at LocalConcurrency, not all at once.
			go c.evalLocal(l, "degraded")
			continue
		}
		// Idle: wake on an enqueue, a fleet change, the grace deadline
		// (when one is pending), or shutdown. A nil timer channel blocks
		// forever, which is exactly right when there is nothing to wait
		// out.
		var deadline <-chan time.Time
		if fleetEmpty && queued > 0 && idleFor < grace {
			deadline = c.clock.After(grace - idleFor)
		}
		select {
		case <-c.queueKick:
		case <-changed:
		case <-deadline:
		case <-c.closedCh:
			return
		}
	}
}

// evalLocal resolves one lease on the coordinator's own evaluator —
// the quarantine dead-letter path and the degraded-mode drain. Runs
// under panic isolation; classification mirrors the worker's, so the
// calibrator cannot distinguish a local fallback from a remote result.
func (c *Coordinator) evalLocal(l *lease, reason string) {
	// A lease that is not evaluated after all is either canceled — and
	// then already resolved by whoever canceled it — or stranded by
	// Close, which cannot see a lease on its way here.
	select {
	case c.localSem <- struct{}{}:
	case <-c.closedCh:
		l.deliver(leaseOutcome{err: ErrCoordinatorClosed})
		return
	}
	defer func() { <-c.localSem }()
	c.mu.Lock()
	canceled := l.canceled || c.closed
	c.mu.Unlock()
	if canceled {
		l.deliver(leaseOutcome{err: ErrCoordinatorClosed})
		return
	}
	pt := make(core.Point, len(l.point))
	for k, v := range l.point {
		pt[k] = float64(v)
	}
	sim, err := c.localSimulator(l.spec)
	var loss float64
	if err == nil {
		err = resilience.Safely(func() error {
			var e error
			loss, e = sim.Run(c.localCtx, pt)
			return e
		})
	}
	c.localEvals.Inc()
	if c.cfg.Tracer != nil {
		fields := obs.Fields{"lease": l.id, "index": l.index, "reason": reason}
		if err != nil {
			fields["err"] = err.Error()
		} else {
			fields["loss"] = WireFloat(loss)
		}
		c.cfg.Tracer.Emit(obs.EventDistLocalEval, fields)
	}
	out := leaseOutcome{loss: loss}
	if err != nil {
		// %w preserves the resilience classification (transient errors
		// stay transient for the calibrator's retry machinery).
		out.err = fmt.Errorf("dist: local fallback (%s): %w", reason, err)
	}
	l.deliver(out)
}

// localSimulator returns the cached LocalFactory simulator for spec,
// building it on first use.
func (c *Coordinator) localSimulator(spec json.RawMessage) (core.Simulator, error) {
	key := string(spec)
	c.localMu.Lock()
	defer c.localMu.Unlock()
	if sim, ok := c.localSims[key]; ok {
		return sim, nil
	}
	sim, err := c.cfg.LocalFactory(spec)
	if err != nil {
		return nil, err
	}
	c.localSims[key] = sim
	return sim, nil
}

// Close shuts the coordinator down: all worker connections are closed
// (workers observe io.EOF and exit cleanly) and every unresolved lease
// — queued or in flight — resolves with ErrCoordinatorClosed, which is
// what returns pending RemoteEvaluator.Run calls.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	workers := make([]*remoteWorker, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	queue := c.queue
	c.queue = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.closedCh)
	c.localCancel() // abandon in-flight local fallback evaluations
	inflight := make([]*lease, 0)
	for _, w := range workers {
		c.mu.Lock()
		for _, l := range w.inflight {
			inflight = append(inflight, l)
		}
		c.mu.Unlock()
		w.conn.Close()
	}
	for _, l := range queue {
		l.deliver(leaseOutcome{err: ErrCoordinatorClosed})
	}
	// Nothing else tells an in-flight lease's waiter about the shutdown
	// (deliver drops the duplicate for anything a worker already
	// answered).
	for _, l := range inflight {
		l.deliver(leaseOutcome{err: ErrCoordinatorClosed})
	}
	return nil
}

// CancelJob abandons every lease belonging to job without disturbing
// other jobs' queues: queued leases are marked canceled and resolve
// immediately with ErrJobCanceled (dispatchers skip them when they
// reach the queue head), while in-flight leases finish on their worker
// and are never re-queued after a worker death, which resolves them
// with ErrJobCanceled instead. It returns the number of leases
// canceled. The multi-tenant job server calls this when a job is
// deleted, alongside canceling the job's own evaluation context.
func (c *Coordinator) CancelJob(job string) int {
	if job == "" {
		return 0
	}
	c.mu.Lock()
	n := 0
	var canceled []*lease
	for _, l := range c.queue {
		if l.job == job && !l.canceled {
			l.canceled = true
			n++
			canceled = append(canceled, l)
		}
	}
	for _, w := range c.workers {
		for _, l := range w.inflight {
			if l.job == job && !l.canceled {
				l.canceled = true
				n++
			}
		}
	}
	c.mu.Unlock()
	// Deliver outside the lock: callback leases run their completion
	// callback inline.
	for _, l := range canceled {
		l.deliver(leaseOutcome{err: ErrJobCanceled})
	}
	return n
}

// WorkerCount returns the number of currently connected workers.
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Capacity returns the total evaluation capacity across connected
// workers.
func (c *Coordinator) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, w := range c.workers {
		total += w.capacity
	}
	return total
}

// WorkerStatus is one connected worker's row in CoordinatorStatus.
type WorkerStatus struct {
	Name         string  `json:"name"`
	Capacity     int     `json:"capacity"`
	Inflight     int     `json:"inflight"`
	LastRecvAgeS float64 `json:"last_recv_age_s"`
	// ClockOffsetNS is the worker-minus-coordinator clock offset and
	// RTTNS the round trip of the exchange that produced it; both zero
	// until the first ping echo arrives.
	ClockOffsetNS int64 `json:"clock_offset_ns,omitempty"`
	RTTNS         int64 `json:"rtt_ns,omitempty"`
}

// LeaseRequeueStatus is one requeued-but-unresolved lease in
// CoordinatorStatus — a poison candidate an operator can see before it
// wedges a fleet.
type LeaseRequeueStatus struct {
	ID       uint64 `json:"id"`
	Index    uint64 `json:"index"`
	Requeues int    `json:"requeues"`
}

// CoordinatorStatus is the /statusz view of the fleet: connected
// workers (sorted by name), lease queue depth, total capacity, and the
// chaos-hardening state (requeue/quarantine/degradation).
type CoordinatorStatus struct {
	Workers    []WorkerStatus `json:"workers"`
	QueueDepth int            `json:"queue_depth"`
	Capacity   int            `json:"capacity"`
	// Degraded reports whether the coordinator is currently draining
	// the queue through its local evaluator (fleet empty past the
	// grace window).
	Degraded bool `json:"degraded"`
	// Quarantined counts leases dead-lettered after exceeding the
	// requeue cap; LocalEvals counts leases evaluated on the local
	// fallback (quarantine + degraded drain).
	Quarantined int64 `json:"quarantined"`
	LocalEvals  int64 `json:"local_evals"`
	// Requeues lists live (queued or in-flight) leases that have been
	// re-queued at least once, deepest first, capped at 16 entries.
	// RequeuesTotal is the uncapped count, so a reader can tell when
	// the list was truncated (RequeuesTotal > len(Requeues)).
	Requeues      []LeaseRequeueStatus `json:"requeues,omitempty"`
	RequeuesTotal int                  `json:"requeues_total"`
	// JobQueueDepth breaks QueueDepth down by job ID for multi-job
	// servers (leases without a job are omitted).
	JobQueueDepth map[string]int `json:"job_queue_depth,omitempty"`
}

// Status reports a consistent snapshot of the fleet for /statusz.
func (c *Coordinator) Status() CoordinatorStatus {
	now := c.clock.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CoordinatorStatus{
		QueueDepth:  len(c.queue),
		Workers:     []WorkerStatus{},
		Degraded:    c.degraded,
		Quarantined: c.leasesQuarantined.Value(),
		LocalEvals:  c.localEvals.Value(),
	}
	addRequeued := func(l *lease) {
		if l.requeues > 0 && !l.canceled {
			st.Requeues = append(st.Requeues, LeaseRequeueStatus{ID: l.id, Index: l.index, Requeues: l.requeues})
		}
	}
	for _, l := range c.queue {
		addRequeued(l)
		if l.job != "" && !l.canceled {
			if st.JobQueueDepth == nil {
				st.JobQueueDepth = make(map[string]int)
			}
			st.JobQueueDepth[l.job]++
		}
	}
	for _, w := range c.workers {
		st.Capacity += w.capacity
		ws := WorkerStatus{
			Name:         w.name,
			Capacity:     w.capacity,
			Inflight:     len(w.inflight),
			LastRecvAgeS: float64(now-w.lastRecv.Load()) / 1e9,
		}
		if w.hasOffset {
			ws.ClockOffsetNS = w.offsetNS
			ws.RTTNS = w.offsetRTT
		}
		st.Workers = append(st.Workers, ws)
		for _, l := range w.inflight {
			addRequeued(l)
		}
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	sort.Slice(st.Requeues, func(i, j int) bool {
		if st.Requeues[i].Requeues != st.Requeues[j].Requeues {
			return st.Requeues[i].Requeues > st.Requeues[j].Requeues
		}
		return st.Requeues[i].ID < st.Requeues[j].ID
	})
	st.RequeuesTotal = len(st.Requeues)
	if len(st.Requeues) > 16 {
		st.Requeues = st.Requeues[:16]
	}
	return st
}

// RefreshFleetGauges brings the coordinator-owned per-worker gauges
// (in-flight leases, heartbeat age) up to date. It is the Refresh hook
// a /metrics endpoint calls before every scrape — these gauges describe
// passage of time, so they go stale without a poke.
func (c *Coordinator) RefreshFleetGauges() {
	now := c.clock.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.gInflight != nil {
			w.gInflight.Set(float64(len(w.inflight)))
		}
		if w.gHbAge != nil {
			w.gHbAge.Set(float64(now - w.lastRecv.Load()))
		}
	}
}

// WaitForWorkers blocks until at least n workers are connected, the
// context expires, or the coordinator closes.
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		count := len(c.workers)
		changed := c.workersChanged
		c.mu.Unlock()
		if count >= n {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return fmt.Errorf("dist: waiting for %d workers (have %d): %w", n, count, ctx.Err())
		case <-c.closedCh:
			return ErrCoordinatorClosed
		}
	}
}

// Evaluator returns a core.Simulator whose evaluations are leased to
// this coordinator's workers. spec is the opaque simulator description
// shipped with every lease; workers rebuild (and cache) the simulator
// from it, so one worker pool serves many evaluators with different
// specs. The returned evaluator plugs under the calibration core's
// existing dispatch, cache, resilience, and observability layers
// untouched — distribution is invisible above the Simulator interface.
func (c *Coordinator) Evaluator(spec []byte) *RemoteEvaluator {
	return c.JobEvaluator("", spec)
}

// JobEvaluator is Evaluator for one job of a multi-tenant server: every
// lease it enqueues is tagged with the job ID, so the job shows up in
// per-job queue accounting (Status.JobQueueDepth), worker-side eval
// trace events, and CancelJob can purge exactly this job's queued
// leases. Many JobEvaluators share one coordinator fleet concurrently.
func (c *Coordinator) JobEvaluator(job string, spec []byte) *RemoteEvaluator {
	return &RemoteEvaluator{c: c, job: job, spec: append(json.RawMessage(nil), spec...)}
}

// RemoteEvaluator is a core.Simulator that evaluates points on the
// coordinator's worker pool.
type RemoteEvaluator struct {
	c    *Coordinator
	job  string
	spec json.RawMessage
	next atomic.Uint64
}

// Run implements core.Simulator: RunAsync plus a wait. It blocks until
// the lease resolves — a worker's result, the context's expiry or the
// coordinator's shutdown all arrive through the lease's callback.
func (e *RemoteEvaluator) Run(ctx context.Context, p core.Point) (float64, error) {
	done := make(chan leaseOutcome, 1)
	e.RunAsync(ctx, p, func(loss float64, err error) { done <- leaseOutcome{loss: loss, err: err} })
	out := <-done
	return out.loss, out.err
}

// EvalConcurrency reports the pool's current total capacity, letting
// the calibration core widen its default batch parallelism to keep
// every remote worker busy (see core.ConcurrencyHinter).
func (e *RemoteEvaluator) EvalConcurrency() int { return e.c.Capacity() }
