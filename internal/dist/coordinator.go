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
	// events, plus one dist_worker_eval event per evaluation a worker
	// answered, carrying the worker-clock timing its result brought
	// (see fleet.traceWorkerEval). All of these are
	// additions to the trace, never reorderings of calibration events:
	// the calibration's own observer still sees remote evaluations
	// through the ordinary core.Simulator path, which is what lets a
	// distributed run's calibration trajectory stay bitwise identical
	// to a serial run's.
	Tracer *obs.Tracer
	// TraceID, when non-empty, is stamped on every dist_worker_eval
	// event, so a merged trace is keyed by (trace, lease).
	TraceID string
	// Clock is the time source for heartbeats; nil means RealClock.
	// Tests inject a ManualClock so expiry tests never sleep.
	Clock Clock
	// HeartbeatEvery is how often idle connections are pinged.
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is how long a silent worker is tolerated before
	// it is declared dead and its leases re-queued.
	HeartbeatTimeout time.Duration

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
	// the queue through LocalFactory (at most GOMAXPROCS evaluations at
	// a time, quarantine fallbacks included). Zero means
	// DefaultDegradedGrace; negative disables degradation. Workers that
	// return are re-absorbed: degraded mode ends the moment one
	// registers.
	DegradedGrace time.Duration
}

// Coordinator shards loss evaluations across remote workers. All lease
// state lives in one single-threaded state machine (fleet.go: events
// in, actions out); the Coordinator is its plumbing. Every goroutine
// that has something to report — a RunAsync caller, a worker's reader,
// the timer, CancelJob, Close — takes mu, feeds the fleet one event,
// releases mu and performs the actions the event produced. A connected
// worker costs two goroutines: a reader (the handshake goroutine carries
// on as it) and a writer that drains the worker's outbox in order; one
// coordinator-wide timer goroutine sleeps until the deadline tick
// returned. Results resolve leases by ID and a dead worker's in-flight
// leases are re-queued unconditionally, so — because the calibration
// core merges samples index-addressed — the trajectory is identical no
// matter how many workers serve it or die mid-batch.
type Coordinator struct {
	cfg   CoordinatorConfig
	clock Clock

	mu             sync.Mutex
	fleet          *fleet        // guarded by mu
	workersChanged chan struct{} // guarded by mu; closed and replaced when the worker set changes

	closedCh  chan struct{}
	timerWake chan struct{}  // one slot: a deadline moved up
	unnamed   atomic.Uint64  // numbers the workers that sent no name
	byes      sync.WaitGroup // bye frames Close is still sending

	// localSims caches LocalFactory-built simulators by spec, exactly
	// as workers cache theirs. localSem bounds concurrent local
	// evaluations (degraded drain and quarantine fallback combined) to
	// GOMAXPROCS; localCtx cancels them at Close.
	localMu     sync.Mutex
	localSims   map[string]core.Simulator
	localSem    chan struct{}
	localCtx    context.Context
	localCancel context.CancelFunc

	reg        *obs.Registry // cfg.Registry, or a private one
	localEvals *obs.Counter
	framesRx   *obs.Counter
	framesTx   *obs.Counter
}

// withDefaults fills in the zero-value knobs.
func (cfg CoordinatorConfig) withDefaults() CoordinatorConfig {
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
	return cfg
}

// NewCoordinator returns a Coordinator ready to Serve a listener.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:            cfg,
		clock:          cfg.Clock,
		fleet:          newFleet(cfg, reg, cfg.Clock.Now().UnixNano()),
		workersChanged: make(chan struct{}),
		closedCh:       make(chan struct{}),
		timerWake:      make(chan struct{}, 1),
		localSem:       make(chan struct{}, runtime.GOMAXPROCS(0)),
		reg:            reg,
		localEvals:     reg.Counter("dist.local_evals"),
		framesRx:       reg.Counter("dist.frames_rx"),
		framesTx:       reg.Counter("dist.frames_tx"),
	}
	c.localCtx, c.localCancel = context.WithCancel(context.Background())
	if cfg.LocalFactory != nil {
		c.localSims = make(map[string]core.Simulator)
	}
	go c.timerLoop()
	return c
}

// now is the event timestamp. Read under mu, so the fleet sees time in
// the order it sees events.
func (c *Coordinator) now() int64 { return c.clock.Now().UnixNano() }

// wake fills a one-slot wake channel; a full slot already says it.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// perform ends an event: called with mu held, it takes the actions the
// event produced, releases mu and carries them out in order. Completion
// callbacks and connection closes therefore never run under the lock.
// The one or two actions of a steady-state event are copied into a
// stack array, so an event allocates nothing of its own.
func (c *Coordinator) perform() {
	var buf [4]action
	acts := append(buf[:0], c.fleet.acts...)
	clear(c.fleet.acts)
	c.fleet.acts = c.fleet.acts[:0]
	c.mu.Unlock()
	for i := range acts {
		a := &acts[i]
		switch a.kind {
		case actDeliver:
			if a.stop != nil {
				a.stop()
			}
			a.l.cb(a.out.loss, a.out.err)
		case actWake:
			wake(a.w.wake)
		case actDrop:
			if a.out.err == ErrCoordinatorClosed {
				c.byes.Add(1)
				go func(conn Conn) {
					defer c.byes.Done()
					sayBye(conn)
				}(a.w.conn)
			} else {
				a.w.conn.Close()
			}
			wake(a.w.wake) // the writer finds w dead and exits
		case actLocal:
			go c.evalLocal(a.l, a.name)
		case actTrace:
			c.cfg.Tracer.Emit(a.name, a.fields)
		case actMembers:
			c.mu.Lock()
			close(c.workersChanged)
			c.workersChanged = make(chan struct{})
			c.mu.Unlock()
		case actArm:
			wake(c.timerWake)
		}
	}
}

// timerLoop is the coordinator's one clock-driven goroutine: it feeds
// the fleet a tick, sleeps until the deadline the tick returned (or
// until an event moves the deadline up), and repeats until Close.
func (c *Coordinator) timerLoop() {
	for {
		c.mu.Lock()
		now := c.now()
		deadline := c.fleet.tick(now)
		c.perform()
		var due <-chan time.Time // nil blocks: nothing is pending
		if deadline != 0 {
			due = c.clock.After(time.Duration(deadline - now))
		}
		select {
		case <-due:
		case <-c.timerWake:
		case <-c.closedCh:
			return
		}
	}
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
// yet, so without this a peer that never sends its hello would hang
// this side forever. The spawned Recv drains into the buffered channel
// even after a timeout fires.
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

// handle performs the hello handshake, registers the worker, starts its
// writer and then serves as its reader: every inbound frame is a fleet
// event, and any read error declares the worker dead.
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
	name := f.Hello.Name
	if name == "" {
		name = fmt.Sprintf("worker-%d", c.unnamed.Add(1))
	}
	w := newRemoteWorker(name, f.Hello.Capacity, conn)
	w.gInflight = c.reg.Gauge(obs.LabeledName("dist.worker_inflight", "worker", w.name))
	w.gHbAge = c.reg.Gauge(obs.LabeledName("dist.worker_heartbeat_age_ns", "worker", w.name))
	w.gOffset = c.reg.Gauge(obs.LabeledName("dist.worker_clock_offset_ns", "worker", w.name))
	go c.writeLoop(w)
	c.mu.Lock()
	c.fleet.hello(c.now(), w)
	c.perform()
	for {
		f, err := conn.Recv()
		if err != nil {
			c.workerDead(w, err)
			return
		}
		c.framesRx.Inc()
		// Absorbed before delivered: when a result's callback runs, the
		// registry already holds the deltas its frame carried.
		c.absorbTelemetry(w, f.Telemetry)
		c.mu.Lock()
		c.fleet.frame(c.now(), w, f)
		c.perform()
	}
}

// writeLoop is the worker connection's only sender after the handshake.
// Each wake it swaps its (sent) batch with the worker's outbox and
// sends the frames in order; a send error declares the worker dead, and
// a dead worker — the drop action wakes the writer — ends the loop.
func (c *Coordinator) writeLoop(w *remoteWorker) {
	var batch []*Frame
	for range w.wake {
		c.mu.Lock()
		dead := w.dead
		batch, w.outbox = w.outbox, batch[:0]
		c.mu.Unlock()
		if dead {
			return
		}
		for i, f := range batch {
			if err := w.conn.Send(f); err != nil {
				c.workerDead(w, err)
				return
			}
			c.framesTx.Inc()
			batch[i] = nil
		}
	}
}

// byeTimeout bounds how long Close waits for a peer to take its bye
// frame; past it the connection is closed anyway.
const byeTimeout = time.Second

// sayBye ends a worker's session on coordinator shutdown: the bye frame
// tells the worker this close is orderly. Off the event loop, because
// the send can wait on the peer; frameConn serializes it with the
// writer's frames.
func sayBye(conn Conn) {
	stop := time.AfterFunc(byeTimeout, func() { conn.Close() })
	_ = conn.Send(&Frame{Type: TypeBye})
	stop.Stop()
	conn.Close()
}

// workerDead reports a failed Recv or Send on w's connection.
func (c *Coordinator) workerDead(w *remoteWorker, cause error) {
	c.mu.Lock()
	c.fleet.dead(c.now(), w, cause)
	c.perform()
}

// absorbTelemetry merges the metric deltas a worker's frame carried
// into the coordinator's registry. Metric names gain a worker label
// (worker.eval_ns becomes `worker.eval_ns{worker="w1"}`): counters and
// histograms arrive as deltas and are added, gauges arrive absolute and
// are set. (The frame's clock-sync echo is the fleet's: fleet.frame.)
func (c *Coordinator) absorbTelemetry(w *remoteWorker, t *TelemetryMsg) {
	reg := c.cfg.Registry
	if t == nil || reg == nil {
		return
	}
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

// ClockOffset computes the NTP-style offset (worker clock minus
// coordinator clock) and round trip from one ping exchange: t1 is the
// coordinator's send stamp, t2 the worker's receive stamp, t3 the
// worker's reply-send stamp, t4 the coordinator's receive stamp.
func ClockOffset(t1, t2, t3, t4 int64) (offset, rtt int64) {
	offset = ((t2 - t1) + (t3 - t4)) / 2
	rtt = (t4 - t1) - (t3 - t2)
	return offset, rtt
}

// evalLocal resolves one lease on the coordinator's own evaluator —
// the quarantine dead-letter path and the degraded-mode drain. Runs
// under panic isolation; classification mirrors the worker's, so the
// calibrator cannot distinguish a local fallback from a remote result.
// Its answer is a fleet event like every other resolution.
func (c *Coordinator) evalLocal(l *lease, reason string) {
	// A lease that is not evaluated after all is either canceled — and
	// then already resolved by whoever canceled it — or stranded by
	// Close, which cannot see a lease on its way here.
	select {
	case c.localSem <- struct{}{}:
	case <-c.closedCh:
		c.resolve(l, leaseOutcome{err: ErrCoordinatorClosed})
		return
	}
	defer func() { <-c.localSem }()
	c.mu.Lock()
	skip := l.settled || c.fleet.closed
	c.mu.Unlock()
	if skip {
		c.resolve(l, leaseOutcome{err: ErrCoordinatorClosed})
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
	c.resolve(l, out)
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

// resolve feeds the fleet a resolution produced outside it (the local
// evaluator's answer).
func (c *Coordinator) resolve(l *lease, out leaseOutcome) {
	c.mu.Lock()
	c.fleet.resolve(l, out)
	c.perform()
}

// Close shuts the coordinator down: every worker is sent a bye frame
// and its connection closed (its session ends cleanly; Close returns
// once the frames are sent) and every unresolved lease
// — queued, in flight or on its way to the local evaluator — resolves
// with ErrCoordinatorClosed, which is what returns pending
// RemoteEvaluator.Run calls.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.fleet.closed {
		c.mu.Unlock()
		return nil
	}
	c.fleet.close(c.now())
	close(c.closedCh)
	c.localCancel() // abandon in-flight local fallback evaluations
	c.perform()
	c.byes.Wait() // a process that exits next must not lose them
	return nil
}

// CancelJob abandons every lease belonging to job without disturbing
// other jobs' queues (see fleet.cancelJob) and returns the number of
// leases canceled. The multi-tenant job server calls this when a job is
// deleted, alongside canceling the job's own evaluation context.
func (c *Coordinator) CancelJob(job string) int {
	c.mu.Lock()
	n := c.fleet.cancelJob(job)
	c.perform()
	return n
}

// WorkerCount returns the number of currently connected workers.
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fleet.workers)
}

// Capacity returns the total evaluation capacity across connected
// workers.
func (c *Coordinator) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, w := range c.fleet.workers {
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
		QueueDepth:  len(c.fleet.queue),
		Workers:     []WorkerStatus{},
		Degraded:    c.fleet.degraded,
		Quarantined: c.fleet.leasesQuarantined.Value(),
		LocalEvals:  c.localEvals.Value(),
	}
	addRequeued := func(l *lease) {
		if l.requeues > 0 && !l.canceled {
			st.Requeues = append(st.Requeues, LeaseRequeueStatus{ID: l.id, Index: l.index, Requeues: l.requeues})
		}
	}
	for _, l := range c.fleet.queue {
		addRequeued(l)
		if l.job != "" {
			if st.JobQueueDepth == nil {
				st.JobQueueDepth = make(map[string]int)
			}
			st.JobQueueDepth[l.job]++
		}
	}
	for _, w := range c.fleet.workers {
		st.Capacity += w.capacity
		ws := WorkerStatus{
			Name:         w.name,
			Capacity:     w.capacity,
			Inflight:     len(w.inflight),
			LastRecvAgeS: float64(now-w.lastRecvNS) / 1e9,
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
// (in-flight leases, heartbeat age, clock offset) up to date. It is the
// Refresh hook a /metrics endpoint calls before every scrape: these
// gauges mirror fleet state, which moves with every frame and with the
// passage of time, so they are written when read rather than when it
// moves.
func (c *Coordinator) RefreshFleetGauges() {
	now := c.clock.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.fleet.workers {
		w.gInflight.Set(float64(len(w.inflight)))
		w.gHbAge.Set(float64(now - w.lastRecvNS))
		w.gOffset.Set(float64(w.offsetNS))
	}
}

// WaitForWorkers blocks until at least n workers are connected, the
// context expires, or the coordinator closes.
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		count := len(c.fleet.workers)
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
