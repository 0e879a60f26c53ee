package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/resilience"
)

// Factory builds a simulator from the opaque spec carried by a lease.
// Workers cache built simulators keyed by the spec bytes, so a factory
// is invoked once per distinct spec per connection, not per lease.
type Factory func(spec []byte) (core.Simulator, error)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Name identifies the worker in the hello handshake and in
	// coordinator-side logs and trace events.
	Name string
	// Capacity is the number of leases evaluated concurrently; the
	// coordinator never holds more than Capacity leases in flight on
	// this worker. Zero means 1.
	Capacity int
	// Factory builds simulators from lease specs. Required.
	Factory Factory
	// Clock is the time source for heartbeats and evaluation timing;
	// nil means RealClock. Tests inject a ManualClock so
	// heartbeat-timeout tests never sleep real time.
	Clock Clock
	// HeartbeatEvery is how often the worker pings the coordinator.
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is how long a silent coordinator is tolerated
	// before the worker drops the connection.
	HeartbeatTimeout time.Duration
	// Registry receives the worker's own metrics (worker.eval_ns,
	// cache hit/miss counters, the in-flight gauge). nil means a
	// private registry; cmd/simcal-worker passes obs.Default() so the
	// worker's own /metrics endpoint and the coordinator's fleet view
	// report the same numbers.
	Registry *obs.Registry
}

// Worker executes leases for one coordinator. It is the library behind
// cmd/simcal-worker, and what the hermetic loopback tests run in-process.
type Worker struct {
	cfg   WorkerConfig
	clock Clock

	simsMu sync.Mutex
	sims   map[string]core.Simulator

	// Worker-side metrics, shipped to the coordinator as deltas on the
	// frames the worker sends and served locally by its own /metrics
	// endpoint.
	reg             *obs.Registry
	evalNS          *obs.Histogram
	evalsOK         *obs.Counter
	evalsFailed     *obs.Counter
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	sessionsResumed *obs.Counter
	inflightGauge   *obs.Gauge

	inflightMu sync.Mutex
	inflight   int // guarded by inflightMu, and published to inflightGauge under it
}

// NewWorker validates cfg and returns a Worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Factory == nil {
		return nil, errors.New("dist: WorkerConfig requires a Factory")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	w := &Worker{cfg: cfg, clock: cfg.Clock, sims: make(map[string]core.Simulator)}
	w.reg = cfg.Registry
	w.evalNS = w.reg.Histogram("worker.eval_ns")
	w.evalsOK = w.reg.Counter("worker.evals_ok")
	w.evalsFailed = w.reg.Counter("worker.evals_failed")
	w.cacheHits = w.reg.Counter("worker.sim_cache_hits")
	w.cacheMisses = w.reg.Counter("worker.sim_cache_misses")
	w.sessionsResumed = w.reg.Counter("worker.sessions_resumed")
	w.inflightGauge = w.reg.Gauge("worker.inflight_leases")
	return w, nil
}

// session is the sending side of one coordinator connection. Every
// frame after the hello leaves through send, which under one mutex
// builds the metric delta since the previous frame, attaches it and
// sends — so deltas are never double-counted across the concurrent
// senders (one per running lease, and the heartbeat) and frames carry
// registry snapshots in the order they were taken: an absolute gauge
// value cannot be overtaken by an older one.
type session struct {
	w    *Worker
	conn Conn

	mu           sync.Mutex // held across a whole send
	prevCounters map[string]int64
	prevGauges   map[string]float64
	prevHists    map[string]obs.HistDump

	// ping is the latest unechoed clock-sync ping: the coordinator's send
	// stamp and this worker's receive stamp. Outside mu, so the read loop
	// never waits for a send.
	ping atomic.Pointer[[2]int64]
}

func (w *Worker) newSession(conn Conn) *session {
	return &session{
		w: w, conn: conn,
		prevCounters: make(map[string]int64),
		prevGauges:   make(map[string]float64),
		prevHists:    make(map[string]obs.HistDump),
	}
}

// send attaches what the registry accumulated since the last frame to
// f and sends it.
func (s *session) send(f *Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.Telemetry = s.delta()
	return s.conn.Send(f)
}

// delta assembles a frame's telemetry: counter and histogram deltas
// since the previous one, gauges whose value changed (gauges cross the
// wire as absolute values), and the echo of the latest heartbeat ping.
// It returns nil when there is nothing to report. Called with mu held.
func (s *session) delta() *TelemetryMsg {
	snap := s.w.reg.Snapshot()
	msg := &TelemetryMsg{SentUnixNS: s.w.clock.Now().UnixNano()}
	for name, v := range snap.Counters {
		if d := v - s.prevCounters[name]; d != 0 {
			if msg.Counters == nil {
				msg.Counters = make(map[string]int64)
			}
			msg.Counters[name] = d
			s.prevCounters[name] = v
		}
	}
	for name, v := range snap.Gauges {
		prev, seen := s.prevGauges[name]
		if !seen || prev != v {
			if msg.Gauges == nil {
				msg.Gauges = make(map[string]WireFloat)
			}
			msg.Gauges[name] = WireFloat(v)
			s.prevGauges[name] = v
		}
	}
	for name, d := range s.w.reg.HistDumps() {
		delta := d.Sub(s.prevHists[name])
		if delta.Count != 0 {
			if msg.Hists == nil {
				msg.Hists = make(map[string]obs.HistDump)
			}
			msg.Hists[name] = delta
			s.prevHists[name] = d
		}
	}
	if p := s.ping.Swap(nil); p != nil { // each ping is echoed once
		msg.EchoPingUnixNS, msg.EchoRecvUnixNS = p[0], p[1]
	}
	if len(msg.Counters) == 0 && len(msg.Gauges) == 0 && len(msg.Hists) == 0 && msg.EchoPingUnixNS == 0 {
		return nil
	}
	return msg
}

// errSessionCut is how Run reports a connection that ended without a bye
// frame: the coordinator dropped this worker (a corrupt frame it read, a
// reset on its side, a heartbeat eviction) or died. Either way the
// worker redials when its session resumes.
var errSessionCut = errors.New("dist: the coordinator closed the connection without ending the session")

// Run serves one coordinator connection until it closes. An orderly
// coordinator shutdown (a bye frame) returns nil — the worker process
// can exit 0; anything else, a clean EOF included, returns an error.
// Run always closes conn before returning.
func (w *Worker) Run(ctx context.Context, conn Conn) error {
	defer conn.Close()
	if err := conn.Send(&Frame{Type: TypeHello, Hello: &HelloMsg{Name: w.cfg.Name, Capacity: w.cfg.Capacity}}); err != nil {
		return err
	}
	// Bound the handshake: if the coordinator's hello does not arrive
	// (a partitioned network), fail fast and let the session layer
	// redial instead of hanging until a heartbeat would have noticed.
	f, err := recvTimeout(conn, w.clock, w.cfg.HeartbeatTimeout)
	if err != nil {
		return fmt.Errorf("dist: waiting for coordinator hello: %w", err)
	}
	if f.Type != TypeHello {
		return fmt.Errorf("dist: coordinator opened with a %s frame, want hello", f.Type)
	}

	// evalCtx cancels every in-flight evaluation the moment the
	// connection dies, so abandoned leases stop burning CPU. Cancel
	// BEFORE waiting: a stalled simulator would otherwise wedge the
	// session teardown forever, and with it any resume loop above —
	// the coordinator has already requeued these leases anyway.
	evalCtx, cancelEvals := context.WithCancel(ctx)
	var evals sync.WaitGroup
	defer func() {
		cancelEvals()
		evals.Wait()
	}()

	var lastRecv atomic.Int64
	lastRecv.Store(w.clock.Now().UnixNano())
	sess := w.newSession(conn)
	hbDone := make(chan struct{})
	defer close(hbDone)
	go w.heartbeatLoop(sess, &lastRecv, hbDone)

	for {
		f, err := conn.Recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err == io.EOF {
				return errSessionCut
			}
			return err
		}
		lastRecv.Store(w.clock.Now().UnixNano())
		switch f.Type {
		case TypeHeartbeat:
			if f.Heartbeat != nil && f.Heartbeat.PingUnixNS != 0 {
				sess.ping.Store(&[2]int64{f.Heartbeat.PingUnixNS, w.clock.Now().UnixNano()})
			}
		case TypeBye:
			return nil // orderly coordinator shutdown
		case TypeLease:
			evals.Add(1)
			go func() {
				defer evals.Done()
				w.evaluate(evalCtx, sess, f.Lease)
			}()
		default:
			return fmt.Errorf("dist: protocol violation: %s frame from coordinator", f.Type)
		}
	}
}

// heartbeatLoop pings the coordinator every HeartbeatEvery — which is
// also what carries an idle worker's metric deltas and ping echoes —
// and drops the connection after HeartbeatTimeout of silence, which
// unblocks the read loop in Run.
func (w *Worker) heartbeatLoop(sess *session, lastRecv *atomic.Int64, done <-chan struct{}) {
	for {
		select {
		case <-w.clock.After(w.cfg.HeartbeatEvery):
		case <-done:
			return
		}
		silent := time.Duration(w.clock.Now().UnixNano() - lastRecv.Load())
		if silent > w.cfg.HeartbeatTimeout {
			sess.conn.Close()
			return
		}
		if sess.send(&Frame{Type: TypeHeartbeat}) != nil {
			return // the read loop observes the dead connection
		}
	}
}

// simulator returns the cached simulator for spec, building it on first
// use.
func (w *Worker) simulator(spec []byte) (core.Simulator, error) {
	key := string(spec)
	w.simsMu.Lock()
	defer w.simsMu.Unlock()
	if sim, ok := w.sims[key]; ok {
		w.cacheHits.Inc()
		return sim, nil
	}
	w.cacheMisses.Inc()
	sim, err := w.cfg.Factory(spec)
	if err != nil {
		return nil, err
	}
	w.sims[key] = sim
	return sim, nil
}

// evaluate runs one lease under panic isolation and reports its result,
// timed on the worker's clock. Leases carry no deadline: a per-evaluation
// timeout is the calibration's resilience executor, whose expired
// attempt cancels its lease on the coordinator. Failures cross the wire
// with their resilience class so the coordinator reconstructs an
// equivalently classified error; evaluations aborted by connection
// teardown report nothing (the coordinator re-queues the lease when it
// declares this worker dead).
func (w *Worker) evaluate(ctx context.Context, sess *session, msg *LeaseMsg) {
	w.addInflight(1)
	pt := make(core.Point, len(msg.Point))
	for k, v := range msg.Point {
		pt[k] = float64(v)
	}
	var loss float64
	start := w.clock.Now()
	sim, err := w.simulator(msg.Spec)
	if err == nil {
		err = resilience.Safely(func() error {
			var e error
			loss, e = sim.Run(ctx, pt)
			return e
		})
	}
	dur := w.clock.Now().Sub(start)
	w.evalNS.ObserveDuration(dur)
	// Every metric of this evaluation moves before its result is sent:
	// the result frame's telemetry is what the coordinator has absorbed
	// by the time the evaluation's caller hears of it.
	w.addInflight(-1)
	res := &ResultMsg{ID: msg.ID, Index: msg.Index, Loss: WireFloat(loss), StartUnixNS: start.UnixNano(), DurNS: int64(dur)}
	if err != nil {
		if ctx.Err() != nil {
			return // connection teardown: the lease is being re-queued
		}
		switch resilience.Classify(err) {
		case resilience.Deterministic:
			res.Class = "deterministic"
		default:
			// Transient — and Aborted with a live connection, which can
			// only come from a simulator canceling itself: worth a retry.
			res.Class = "transient"
		}
		res.Loss = 0
		res.Err = err.Error()
		w.evalsFailed.Inc()
	} else {
		w.evalsOK.Inc()
	}
	// A send failure means the connection died; the coordinator
	// re-queues the lease, so there is nothing to recover here.
	_ = sess.send(&Frame{Type: TypeResult, Result: res})
}

// addInflight moves the in-flight count and its gauge together, under
// one lock: evaluations finishing at once must publish their counts in
// the order they took them, or an idle worker's gauge stays non-zero.
func (w *Worker) addInflight(d int) {
	w.inflightMu.Lock()
	w.inflight += d
	w.inflightGauge.Set(float64(w.inflight))
	w.inflightMu.Unlock()
}

// SessionConfig shapes RunSession's dial-and-resume loop.
type SessionConfig struct {
	// MaxDialAttempts bounds consecutive failed dials before giving
	// up; values < 1 mean a single attempt. The count resets every
	// time a session is established.
	MaxDialAttempts int
	// BaseDelay and MaxDelay bound the capped exponential backoff
	// between dial attempts (resilience.Backoff semantics:
	// base·2^(attempt−1) capped at max, jittered in [0.5, 1.5)).
	// Defaults: 250ms base, 5s cap.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed seeds the backoff jitter; the same seed replays the same
	// dial cadence.
	Seed int64
	// Resume makes a mid-run connection drop survivable: the worker
	// redials, re-handshakes, and serves a fresh session instead of
	// returning the error. The coordinator requeues whatever the dead
	// session held, so nothing is lost. An orderly coordinator
	// shutdown (a bye frame) still ends RunSession with nil.
	Resume bool
}

// RunSession dials the coordinator with capped exponential backoff and
// serves the connection; with cfg.Resume it reconnects and
// re-handshakes after mid-run connection drops, so a worker survives
// network resets and coordinator restarts without losing its simulator
// cache (sims are cached on the Worker, not the session).
func (w *Worker) RunSession(ctx context.Context, t Transport, addr string, cfg SessionConfig) error {
	if cfg.MaxDialAttempts < 1 {
		cfg.MaxDialAttempts = 1
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 250 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Second
	}
	bo := resilience.NewBackoff(cfg.BaseDelay, cfg.MaxDelay, cfg.Seed)
	for {
		var conn Conn
		var err error
		for attempt := 1; ; attempt++ {
			conn, err = t.Dial(addr)
			if err == nil {
				break
			}
			if attempt >= cfg.MaxDialAttempts {
				return fmt.Errorf("dist: giving up after %d dial attempts: %w", attempt, err)
			}
			select {
			case <-time.After(bo.Delay(attempt)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err = w.Run(ctx, conn)
		if err == nil {
			return nil // orderly coordinator shutdown
		}
		if !cfg.Resume || ctx.Err() != nil {
			return err
		}
		w.sessionsResumed.Inc()
	}
}
