// Package service is the calibration job server behind cmd/simcald: a
// long-lived, multi-tenant front end that accepts calibration jobs over
// HTTP, multiplexes them onto a shared evaluation backend (the
// distributed lease coordinator, or local simulator builds), and
// enforces per-tenant quotas with fair round-robin-by-tenant dispatch.
//
// One job is one calibration: a simulator spec, an algorithm, a seed,
// and a budget. Jobs move pending → running → done|failed|canceled.
// Because every calibration in this repository is deterministic, a job
// executed on the shared fleet produces a result bitwise identical to
// the same calibration run alone in cmd/simcal — multiplexing, quota
// pressure, cancellation of neighbors, and server restarts never
// perturb a job's trajectory.
//
// Durability reuses the calibration core's checkpoint/resume: with a
// state directory configured, each job's request is journaled at
// submit, its calibration checkpoints periodically, and its result
// persists at completion. A restarted server reloads the journal,
// re-queues unfinished jobs, and resumes them from their checkpoints —
// completing exactly the run the dead server started.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/simspec"
)

// State is a job's position in its lifecycle.
type State string

// The job state machine: Pending (queued behind the tenant's other
// jobs) → Running (occupying one of the server's run slots) → exactly
// one of Done, Failed, Canceled. A server shutdown reverts Running
// jobs to Pending (in the durable journal, not as a terminal state),
// which is what makes them resumable after a restart.
const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: server closed")

// QuotaError rejects a submission that would exceed the tenant's open
// job quota. The HTTP layer maps it to 429.
type QuotaError struct {
	Tenant string
	Open   int
	Quota  int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q has %d open jobs (quota %d)", e.Tenant, e.Open, e.Quota)
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	// Tenant namespaces the job for quota accounting and fair
	// dispatch; empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Spec is the canonical simulator spec (see internal/simspec) the
	// job calibrates. The same bytes a distributed lease would carry;
	// cmd/simcal -print-spec emits them for any flag combination.
	Spec json.RawMessage `json:"spec"`
	// Algorithm names the search algorithm; the vocabulary is
	// opt.AlgorithmNames (GRID, RAND, GRAD, the BO-* family, and the
	// asynchronous async-bo).
	Algorithm string `json:"algorithm"`
	// MaxEvals bounds loss evaluations; BudgetS bounds wall-clock
	// seconds. At least one must be positive.
	MaxEvals int     `json:"max_evals,omitempty"`
	BudgetS  float64 `json:"budget_s,omitempty"`
	// Seed makes the calibration reproducible.
	Seed int64 `json:"seed"`
	// Workers overrides the evaluation parallelism; 0 lets the backend
	// decide (a coordinator backend widens to the fleet's capacity).
	Workers int `json:"workers,omitempty"`
}

// Event is one entry in a job's progress stream (GET
// /v1/jobs/{id}/events, one JSON object per line).
type Event struct {
	Seq         int        `json:"seq"`
	TUnixNS     int64      `json:"t_unix_ns"`
	Type        string     `json:"type"` // submitted|started|resumed|progress|improved|done|failed|canceled
	Evaluations int64      `json:"evaluations,omitempty"`
	BestLoss    *obs.Float `json:"best_loss,omitempty"`
	Msg         string     `json:"msg,omitempty"`
}

// Backend builds the loss evaluator for one job. The job ID lets a
// distributed backend tag the job's leases (dist.Coordinator's
// JobEvaluator); local backends can ignore it.
type Backend func(job string, spec json.RawMessage) (core.Simulator, error)

// Config configures a Server. The zero value works: local simulator
// builds, in-memory state only, default quotas.
type Config struct {
	// Backend builds evaluators; nil builds simulators locally from
	// the spec via internal/simspec.
	Backend Backend
	// CancelJob, when non-nil, is invoked with a job's ID when the job
	// is canceled mid-run, after its evaluation context is canceled —
	// the hook a coordinator backend uses to purge the job's queued
	// leases (dist.Coordinator.CancelJob) without waiting for each to
	// reach a dispatcher.
	CancelJob func(job string) int
	// Resolve maps a job's spec to its parameter space; nil parses it
	// as a canonical simspec. Tests substitute toy spaces.
	Resolve func(spec json.RawMessage) (core.Space, error)
	// Algorithm resolves an algorithm name; nil means opt.ByName.
	Algorithm func(name string) (core.Algorithm, error)

	// MaxRunning bounds concurrently running jobs; <= 0 means 2.
	MaxRunning int
	// TenantQuota bounds one tenant's open (pending + running) jobs;
	// 0 means 8, negative disables the quota.
	TenantQuota int

	// StateDir enables durability: job journal, per-job calibration
	// checkpoints, and results all live here, and NewServer reloads
	// them — unfinished jobs are re-queued and resume from their
	// checkpoints. Empty keeps everything in memory.
	StateDir string
	// CheckpointEvery is the evaluations between checkpoint snapshots
	// (and progress events); <= 0 means 25.
	CheckpointEvery int

	// Registry, when non-nil, receives the svc.* metrics, including
	// per-job labeled series (svc.job_evals{job="..."}).
	Registry *obs.Registry
	// Cache, when non-nil, memoizes loss evaluations across all jobs:
	// two tenants calibrating the same spec share results, keyed by
	// the spec fingerprint so distinct simulators never mix. Nil
	// disables cross-job memoization.
	Cache *cache.Cache
	// Clock replaces the wall clock in timestamps; nil means time.Now.
	// (Calibration-internal elapsed fields keep their own clock.)
	Clock func() time.Time
}

// Job is the server's record of one calibration job. Mutable fields
// are guarded by the server mutex except the atomic progress counters.
type Job struct {
	ID      string
	Tenant  string
	Request JobRequest

	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	result    *core.Result

	space core.Space
	alg   core.Algorithm

	ctx          context.Context
	cancel       context.CancelFunc
	userCanceled bool

	events  []Event
	eventCh chan struct{}

	evals    atomic.Int64
	bestBits atomic.Uint64 // Float64bits of the best loss; 0 = none yet
	hasBest  atomic.Bool

	cEvals *obs.Counter // svc.job_evals{job=...}; nil without a registry
	gBest  *obs.Gauge   // svc.job_best_loss{job=...}
}

// tenantState is one tenant's dispatch queue and quota accounting.
type tenantState struct {
	pending []*Job
	open    int // pending + running jobs
}

// Server is the multi-tenant calibration job server.
type Server struct {
	cfg      Config
	clock    func() time.Time
	baseCtx  context.Context
	baseStop context.CancelFunc
	wg       sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order (loaded jobs first)
	tenants map[string]*tenantState
	ring    []string // tenant round-robin order (first-seen)
	cursor  int
	running int
	pending int
	nextID  int
	closed  bool

	cSubmitted *obs.Counter
	cDone      *obs.Counter
	cFailed    *obs.Counter
	cCanceled  *obs.Counter
	cRejected  *obs.Counter
	cResumed   *obs.Counter
	gRunning   *obs.Gauge
	gPending   *obs.Gauge
}

// NewServer builds a Server and, when Config.StateDir is set, reloads
// the durable job journal: terminal jobs become queryable again (their
// results served from disk) and unfinished jobs are re-queued to
// resume from their checkpoints.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		cfg.Backend = func(_ string, spec json.RawMessage) (core.Simulator, error) {
			return simspec.BuildSimulator(spec)
		}
	}
	if cfg.Resolve == nil {
		cfg.Resolve = func(spec json.RawMessage) (core.Space, error) {
			s, err := simspec.Parse(spec)
			if err != nil {
				return nil, err
			}
			return s.Space()
		}
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = opt.ByName
	}
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 2
	}
	if cfg.TenantQuota == 0 {
		cfg.TenantQuota = 8
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 25
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		clock:    clock,
		baseCtx:  ctx,
		baseStop: stop,
		jobs:     make(map[string]*Job),
		tenants:  make(map[string]*tenantState),
		nextID:   1,
	}
	if reg := cfg.Registry; reg != nil {
		s.cSubmitted = reg.Counter("svc.jobs_submitted")
		s.cDone = reg.Counter("svc.jobs_done")
		s.cFailed = reg.Counter("svc.jobs_failed")
		s.cCanceled = reg.Counter("svc.jobs_canceled")
		s.cRejected = reg.Counter("svc.jobs_rejected")
		s.cResumed = reg.Counter("svc.jobs_resumed")
		s.gRunning = reg.Gauge("svc.jobs_running")
		s.gPending = reg.Gauge("svc.jobs_pending")
	} else {
		s.cSubmitted = new(obs.Counter)
		s.cDone = new(obs.Counter)
		s.cFailed = new(obs.Counter)
		s.cCanceled = new(obs.Counter)
		s.cRejected = new(obs.Counter)
		s.cResumed = new(obs.Counter)
		s.gRunning = new(obs.Gauge)
		s.gPending = new(obs.Gauge)
	}
	if cfg.StateDir != "" {
		if err := s.load(); err != nil {
			stop()
			return nil, err
		}
	}
	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
	return s, nil
}

// Submit validates and enqueues one job, returning its ID. The job
// starts as soon as a run slot and its tenant's round-robin turn allow.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if len(req.Tenant) > 64 {
		return nil, fmt.Errorf("service: tenant name longer than 64 bytes")
	}
	if req.MaxEvals <= 0 && req.BudgetS <= 0 {
		return nil, fmt.Errorf("service: job needs max_evals or budget_s")
	}
	if req.MaxEvals < 0 || req.BudgetS < 0 || req.Workers < 0 {
		return nil, fmt.Errorf("service: negative budget or workers")
	}
	space, err := s.cfg.Resolve(req.Spec)
	if err != nil {
		return nil, fmt.Errorf("service: invalid spec: %w", err)
	}
	alg, err := s.cfg.Algorithm(req.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	ts := s.tenantLocked(req.Tenant)
	if s.cfg.TenantQuota > 0 && ts.open >= s.cfg.TenantQuota {
		open := ts.open
		s.mu.Unlock()
		s.cRejected.Inc()
		return nil, &QuotaError{Tenant: req.Tenant, Open: open, Quota: s.cfg.TenantQuota}
	}
	j := s.newJobLocked(req, space, alg)
	ts.pending = append(ts.pending, j)
	ts.open++
	s.pending++
	s.gPending.Set(float64(s.pending))
	s.appendEventLocked(j, Event{Type: "submitted"})
	s.dispatchLocked()
	s.mu.Unlock()

	s.cSubmitted.Inc()
	s.persistRecord(j)
	return j, nil
}

// newJobLocked allocates a Job in state pending. Caller holds mu.
func (s *Server) newJobLocked(req JobRequest, space core.Space, alg core.Algorithm) *Job {
	id := fmt.Sprintf("j-%06d", s.nextID)
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:        id,
		Tenant:    req.Tenant,
		Request:   req,
		state:     StatePending,
		submitted: s.clock(),
		space:     space,
		alg:       alg,
		ctx:       ctx,
		cancel:    cancel,
		eventCh:   make(chan struct{}),
	}
	if reg := s.cfg.Registry; reg != nil {
		j.cEvals = reg.Counter(obs.LabeledName("svc.job_evals", "job", id))
		j.gBest = reg.Gauge(obs.LabeledName("svc.job_best_loss", "job", id))
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// tenantLocked returns (creating if needed) one tenant's state and
// keeps the round-robin ring in first-seen order. Caller holds mu.
func (s *Server) tenantLocked(name string) *tenantState {
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{}
		s.tenants[name] = ts
		s.ring = append(s.ring, name)
	}
	return ts
}

// dispatchLocked fills free run slots with pending jobs, rotating
// across tenants so no tenant's backlog starves another's first job —
// the fairness model is round-robin by tenant, FIFO within a tenant.
// Caller holds mu.
func (s *Server) dispatchLocked() {
	if s.closed {
		return
	}
	for s.running < s.cfg.MaxRunning {
		j := s.nextPendingLocked()
		if j == nil {
			return
		}
		j.state = StateRunning
		j.started = s.clock()
		s.running++
		s.pending--
		s.gRunning.Set(float64(s.running))
		s.gPending.Set(float64(s.pending))
		s.wg.Add(1)
		go s.runJob(j)
	}
}

// nextPendingLocked pops the next job in round-robin-by-tenant order,
// or nil when nothing is pending. Caller holds mu.
func (s *Server) nextPendingLocked() *Job {
	n := len(s.ring)
	for i := 0; i < n; i++ {
		t := s.ring[(s.cursor+i)%n]
		ts := s.tenants[t]
		if len(ts.pending) > 0 {
			j := ts.pending[0]
			ts.pending = ts.pending[1:]
			s.cursor = (s.cursor + i + 1) % n
			return j
		}
	}
	return nil
}

// runJob executes one calibration end to end and finalizes the job.
func (s *Server) runJob(j *Job) {
	defer s.wg.Done()
	s.persistRecord(j)
	resumed := false
	cal := core.Calibrator{
		Space:          j.space,
		Algorithm:      j.alg,
		MaxEvaluations: j.Request.MaxEvals,
		Budget:         time.Duration(j.Request.BudgetS * float64(time.Second)),
		Workers:        j.Request.Workers,
		Seed:           j.Request.Seed,
		Observer:       &jobObserver{s: s, j: j},
	}
	if s.cfg.Cache != nil {
		cal.Cache = s.cfg.Cache
		cal.CacheKey = "svc/" + Fingerprint(j.Request.Spec)
	}
	if s.cfg.StateDir != "" {
		cal.Checkpoint = &core.CheckpointSpec{Path: s.ckptPath(j.ID), Every: s.cfg.CheckpointEvery}
		if snap, err := core.LoadCheckpoint(s.ckptPath(j.ID)); err == nil &&
			snap.Algorithm == j.alg.Name() && snap.Seed == j.Request.Seed {
			cal.Resume = snap
			resumed = true
		}
	}
	sim, err := s.cfg.Backend(j.ID, j.Request.Spec)
	var res *core.Result
	if err == nil {
		cal.Simulator = sim
		if resumed {
			s.cResumed.Inc()
			s.withLock(func() {
				s.appendEventLocked(j, Event{Type: "resumed", Evaluations: int64(cal.Resume.Evaluations)})
			})
		}
		s.withLock(func() { s.appendEventLocked(j, Event{Type: "started"}) })
		res, err = cal.Run(j.ctx)
	}
	s.finalize(j, res, err)
}

// withLock runs fn under the server mutex.
func (s *Server) withLock(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// finalize moves a finished run to its terminal state — or, when the
// server is shutting down, back to pending so the durable journal
// records an interrupted (resumable) job rather than a canceled one.
func (s *Server) finalize(j *Job, res *core.Result, err error) {
	s.mu.Lock()
	interrupted := s.closed && !j.userCanceled && err != nil && res == nil
	switch {
	case interrupted:
		j.state = StatePending
	case err == nil:
		j.state = StateDone
		j.result = res
		if res != nil {
			j.evals.Store(int64(res.Evaluations))
			j.bestBits.Store(math.Float64bits(res.Best.Loss))
			j.hasBest.Store(true)
		}
	case j.userCanceled || errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = "canceled"
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.finished = s.clock()
	s.running--
	s.gRunning.Set(float64(s.running))
	if j.state.Terminal() {
		s.tenants[j.Tenant].open--
		ev := Event{Type: string(j.state), Evaluations: j.evals.Load()}
		if j.state == StateFailed {
			ev.Msg = j.errMsg
		}
		if j.hasBest.Load() {
			bl := obs.Float(math.Float64frombits(j.bestBits.Load()))
			ev.BestLoss = &bl
		}
		s.appendEventLocked(j, ev)
	}
	s.dispatchLocked()
	s.mu.Unlock()

	switch j.state {
	case StateDone:
		s.cDone.Inc()
		s.persistResult(j, res)
	case StateFailed:
		s.cFailed.Inc()
	case StateCanceled:
		s.cCanceled.Inc()
	}
	s.persistRecord(j)
	if j.state.Terminal() {
		s.removeCheckpoint(j.ID)
	}
}

// Cancel cancels one job: a pending job is removed from its tenant's
// queue immediately; a running job's evaluation context is canceled
// and — through Config.CancelJob — its queued leases purged from the
// shared fleet, leaving every other job's queue untouched. Canceling
// a terminal job is a no-op. The second return is false for unknown
// IDs.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	var cancelRun bool
	switch j.state {
	case StatePending:
		ts := s.tenants[j.Tenant]
		for i, q := range ts.pending {
			if q == j {
				ts.pending = append(ts.pending[:i], ts.pending[i+1:]...)
				break
			}
		}
		ts.open--
		s.pending--
		s.gPending.Set(float64(s.pending))
		j.userCanceled = true
		j.state = StateCanceled
		j.errMsg = "canceled"
		j.finished = s.clock()
		s.appendEventLocked(j, Event{Type: string(StateCanceled)})
		j.cancel()
	case StateRunning:
		j.userCanceled = true
		cancelRun = true
	}
	s.mu.Unlock()
	if cancelRun {
		j.cancel()
		if s.cfg.CancelJob != nil {
			s.cfg.CancelJob(j.ID)
		}
	} else if j.state == StateCanceled {
		s.cCanceled.Inc()
		s.persistRecord(j)
		s.removeCheckpoint(j.ID)
	}
	return j, true
}

// Job returns the job with the given ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Close stops the server: no new submissions, every running job's
// context is canceled, and Close blocks until the runners exit.
// Running jobs are journaled as pending (interrupted), not canceled,
// so a restarted server resumes them from their checkpoints.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.baseStop() // cancels every job ctx (they derive from baseCtx)
	s.wg.Wait()
	return nil
}

// Fingerprint is the content address of a simulator spec: jobs with
// the same fingerprint share cached loss evaluations across tenants.
func Fingerprint(spec json.RawMessage) string {
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:8])
}

// appendEventLocked stamps and appends one event to a job's stream and
// wakes followers. Caller holds mu.
func (s *Server) appendEventLocked(j *Job, ev Event) {
	ev.Seq = len(j.events)
	ev.TUnixNS = s.clock().UnixNano()
	j.events = append(j.events, ev)
	close(j.eventCh)
	j.eventCh = make(chan struct{})
}

// jobObserver feeds a job's live progress counters, per-job metrics,
// and event stream from the calibration's observer callbacks.
type jobObserver struct {
	s *Server
	j *Job
}

func (o *jobObserver) CalibrationStarted(core.RunInfo) {}
func (o *jobObserver) BatchProposed(int)               {}

func (o *jobObserver) EvalCompleted(smp core.Sample, wait, dur time.Duration) {
	n := o.j.evals.Add(1)
	if o.j.cEvals != nil {
		o.j.cEvals.Inc()
	}
	if n%int64(o.s.cfg.CheckpointEvery) == 0 {
		ev := Event{Type: "progress", Evaluations: n}
		if o.j.hasBest.Load() {
			bl := obs.Float(math.Float64frombits(o.j.bestBits.Load()))
			ev.BestLoss = &bl
		}
		o.s.withLock(func() { o.s.appendEventLocked(o.j, ev) })
	}
}

func (o *jobObserver) IncumbentImproved(smp core.Sample) {
	o.j.bestBits.Store(math.Float64bits(smp.Loss))
	o.j.hasBest.Store(true)
	if o.j.gBest != nil {
		o.j.gBest.Set(smp.Loss)
	}
	bl := obs.Float(smp.Loss)
	ev := Event{Type: "improved", Evaluations: o.j.evals.Load(), BestLoss: &bl}
	o.s.withLock(func() { o.s.appendEventLocked(o.j, ev) })
}

func (o *jobObserver) SurrogateFitted(int, time.Duration)                  {}
func (o *jobObserver) AcquisitionSolved(int, time.Duration, time.Duration) {}
func (o *jobObserver) CalibrationFinished(*core.Result)                    {}

// JobStatus is the API view of one job.
type JobStatus struct {
	ID              string     `json:"id"`
	Tenant          string     `json:"tenant"`
	State           State      `json:"state"`
	Algorithm       string     `json:"algorithm"`
	Seed            int64      `json:"seed"`
	MaxEvals        int        `json:"max_evals,omitempty"`
	BudgetS         float64    `json:"budget_s,omitempty"`
	SpecFingerprint string     `json:"spec_fingerprint"`
	SubmittedUnixNS int64      `json:"submitted_unix_ns"`
	StartedUnixNS   int64      `json:"started_unix_ns,omitempty"`
	FinishedUnixNS  int64      `json:"finished_unix_ns,omitempty"`
	Evaluations     int64      `json:"evaluations"`
	BestLoss        *obs.Float `json:"best_loss,omitempty"`
	Error           string     `json:"error,omitempty"`
}

// status snapshots one job. Caller holds mu (the atomics would be safe
// anyway; state/time fields need the lock).
func (s *Server) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:              j.ID,
		Tenant:          j.Tenant,
		State:           j.state,
		Algorithm:       j.Request.Algorithm,
		Seed:            j.Request.Seed,
		MaxEvals:        j.Request.MaxEvals,
		BudgetS:         j.Request.BudgetS,
		SpecFingerprint: Fingerprint(j.Request.Spec),
		SubmittedUnixNS: j.submitted.UnixNano(),
		Evaluations:     j.evals.Load(),
		Error:           j.errMsg,
	}
	if !j.started.IsZero() {
		st.StartedUnixNS = j.started.UnixNano()
	}
	if !j.finished.IsZero() {
		st.FinishedUnixNS = j.finished.UnixNano()
	}
	if j.hasBest.Load() {
		bl := obs.Float(math.Float64frombits(j.bestBits.Load()))
		st.BestLoss = &bl
	}
	return st
}

// Status returns one job's API view.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// JobsSummary is the /statusz "jobs" section: aggregate counts plus
// every job's status, newest first.
type JobsSummary struct {
	Pending  int         `json:"pending"`
	Running  int         `json:"running"`
	Done     int         `json:"done"`
	Failed   int         `json:"failed"`
	Canceled int         `json:"canceled"`
	Tenants  int         `json:"tenants"`
	Jobs     []JobStatus `json:"jobs,omitempty"`
}

// Summary snapshots the whole job table for /statusz and GET /v1/jobs.
func (s *Server) Summary() JobsSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := JobsSummary{Tenants: len(s.tenants)}
	for _, id := range s.order {
		j := s.jobs[id]
		st := s.statusLocked(j)
		switch st.State {
		case StatePending:
			out.Pending++
		case StateRunning:
			out.Running++
		case StateDone:
			out.Done++
		case StateFailed:
			out.Failed++
		case StateCanceled:
			out.Canceled++
		}
		out.Jobs = append(out.Jobs, st)
	}
	// Newest first: recent jobs are what an operator looks for.
	sort.SliceStable(out.Jobs, func(a, b int) bool { return out.Jobs[a].ID > out.Jobs[b].ID })
	return out
}
