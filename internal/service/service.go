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
// Durability reuses the calibration core's journal and resume: with a
// state directory configured, a job is one file, its evaluation journal,
// and a restarted server rebuilds every job from it — serving an ended
// job's result, resuming any other exactly where the dead server was.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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
// jobs to Pending (their journals get no closing line), which is what
// makes them resumable after a restart.
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

	// StateDir enables durability: each job's evaluation journal lives
	// here, and NewServer rebuilds every job from its journal (see
	// store.go). Empty keeps everything in memory.
	StateDir string

	// Registry receives the svc.* metrics, including per-job labeled
	// series (svc.job_evals{job="..."}); nil means a private registry.
	Registry *obs.Registry
	// Cache, when non-nil, memoizes loss evaluations across all jobs:
	// two tenants calibrating the same spec share results, keyed by
	// the spec fingerprint so distinct simulators never mix. Nil
	// disables cross-job memoization.
	Cache *cache.Cache
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

	evals atomic.Int64
	best  atomic.Pointer[obs.Float] // the best loss; nil before the first evaluation

	cEvals *obs.Counter // svc.job_evals{job=...}
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

// NewServer builds a Server and, when Config.StateDir is set, rebuilds
// every job from its journal: ended jobs become queryable again (their
// results rebuilt from their journals) and the rest are re-queued to
// resume from them.
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
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	reg := cfg.Registry
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseStop:   stop,
		jobs:       make(map[string]*Job),
		tenants:    make(map[string]*tenantState),
		nextID:     1,
		cSubmitted: reg.Counter("svc.jobs_submitted"),
		cDone:      reg.Counter("svc.jobs_done"),
		cFailed:    reg.Counter("svc.jobs_failed"),
		cCanceled:  reg.Counter("svc.jobs_canceled"),
		cRejected:  reg.Counter("svc.jobs_rejected"),
		cResumed:   reg.Counter("svc.jobs_resumed"),
		gRunning:   reg.Gauge("svc.jobs_running"),
		gPending:   reg.Gauge("svc.jobs_pending"),
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
	// The spec is kept compact, in the form a journal's header stores it,
	// so its fingerprint is the same before a restart and after.
	spec, err := json.Marshal(req.Spec)
	if err != nil {
		return nil, fmt.Errorf("service: invalid spec: %w", err)
	}
	req.Spec = spec
	space, err := s.cfg.Resolve(req.Spec)
	if err != nil {
		return nil, fmt.Errorf("service: invalid spec: %w", err)
	}
	alg, err := s.cfg.Algorithm(req.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	ts := s.tenantLocked(req.Tenant)
	if s.cfg.TenantQuota > 0 && ts.open >= s.cfg.TenantQuota {
		s.cRejected.Inc()
		return nil, &QuotaError{Tenant: req.Tenant, Open: ts.open, Quota: s.cfg.TenantQuota}
	}
	j := s.newJobLocked(req, space, alg)
	// The journal is created before anything can dispatch or cancel the
	// job, so its file has no other writer yet.
	if err := s.createJournal(j); err != nil {
		return nil, err
	}
	s.addLocked(j)
	s.enqueueLocked(j, Event{Type: "submitted"})
	s.dispatchLocked()
	s.cSubmitted.Inc()
	return j, nil
}

// newJobLocked allocates a Job in state pending. Caller holds mu.
func (s *Server) newJobLocked(req JobRequest, space core.Space, alg core.Algorithm) *Job {
	s.nextID++
	return &Job{
		ID:        fmt.Sprintf("j-%06d", s.nextID-1),
		Tenant:    req.Tenant,
		Request:   req,
		state:     StatePending,
		submitted: time.Now(),
		space:     space,
		alg:       alg,
	}
}

// addLocked enters a job in the job table: its context, event stream
// and labeled series. Caller holds mu.
func (s *Server) addLocked(j *Job) {
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	j.eventCh = make(chan struct{})
	j.cEvals = s.cfg.Registry.Counter(obs.LabeledName("svc.job_evals", "job", j.ID))
	j.gBest = s.cfg.Registry.Gauge(obs.LabeledName("svc.job_best_loss", "job", j.ID))
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

// enqueueLocked queues a pending job behind its tenant's others. Caller
// holds mu.
func (s *Server) enqueueLocked(j *Job, ev Event) {
	ts := s.tenantLocked(j.Tenant)
	ts.pending = append(ts.pending, j)
	ts.open++
	s.pending++
	s.gPending.Set(float64(s.pending))
	s.appendEventLocked(j, ev)
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
		j.started = time.Now()
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
		// The job continues its journal: none yet runs it from evaluation
		// 0, and one that is not this job's fails it.
		cal.Checkpoint, cal.Resume = s.journalPath(j.ID), true
	}
	sim, err := s.cfg.Backend(j.ID, j.Request.Spec)
	var res *core.Result
	if err == nil {
		cal.Simulator = sim
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

// finalize moves a finished run to its terminal state and ends its
// journal — or, when the server is shutting down, back to pending with
// its journal open: an interrupted (resumable) job, not a canceled one.
func (s *Server) finalize(j *Job, res *core.Result, err error) {
	s.mu.Lock()
	s.running--
	s.gRunning.Set(float64(s.running))
	var end jobEnd
	switch {
	case s.closed && !j.userCanceled && err != nil && res == nil:
		j.state = StatePending
	case err == nil:
		j.result = res
		bl := obs.Float(res.Best.Loss)
		j.evals.Store(int64(res.Evaluations))
		j.best.Store(&bl)
		end = s.endLocked(j, StateDone, "", res.Elapsed)
	case j.userCanceled || errors.Is(err, context.Canceled):
		end = s.endLocked(j, StateCanceled, "canceled", 0)
	default:
		end = s.endLocked(j, StateFailed, err.Error(), 0)
	}
	s.dispatchLocked()
	s.mu.Unlock()
	s.ended(j.ID, end)
}

// endLocked moves a job to a terminal state and returns its journal's
// closing line. Caller holds mu.
func (s *Server) endLocked(j *Job, state State, msg string, elapsed time.Duration) jobEnd {
	j.state, j.errMsg, j.finished = state, msg, time.Now()
	s.tenants[j.Tenant].open--
	ev := Event{Type: string(state), Evaluations: j.evals.Load(), BestLoss: j.best.Load()}
	if state == StateFailed {
		ev.Msg = msg
	}
	s.appendEventLocked(j, ev)
	end := jobEnd{State: state, Error: msg, FinishedUnixNS: j.finished.UnixNano(), ElapsedNS: int64(elapsed)}
	if !j.started.IsZero() {
		end.StartedUnixNS = j.started.UnixNano()
	}
	return end
}

// ended counts a job endLocked ended and appends end to its journal; a
// zero end does nothing. The append is best-effort: a job whose end is
// lost runs again after a restart (a done one replays, simulating none).
func (s *Server) ended(id string, end jobEnd) {
	switch end.State {
	case StateDone:
		s.cDone.Inc()
	case StateFailed:
		s.cFailed.Inc()
	case StateCanceled:
		s.cCanceled.Inc()
	default:
		return
	}
	if s.cfg.StateDir != "" {
		_ = core.EndJournal(s.journalPath(id), end)
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
	var end jobEnd
	switch j.state {
	case StatePending:
		ts := s.tenants[j.Tenant]
		for i, q := range ts.pending {
			if q == j {
				ts.pending = append(ts.pending[:i], ts.pending[i+1:]...)
				break
			}
		}
		s.pending--
		s.gPending.Set(float64(s.pending))
		j.userCanceled = true
		j.cancel()
		end = s.endLocked(j, StateCanceled, "canceled", 0)
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
	} else {
		s.ended(j.ID, end)
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
// Running jobs revert to pending, not canceled, and their journals get
// no closing line, so a restarted server resumes them.
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
	ev.TUnixNS = time.Now().UnixNano()
	j.events = append(j.events, ev)
	close(j.eventCh)
	j.eventCh = make(chan struct{})
}

// progressEvery is the evaluations between a job's progress events.
const progressEvery = 25

// jobObserver feeds a job's live progress counters, per-job metrics,
// and event stream from the calibration's observer callbacks.
type jobObserver struct {
	s *Server
	j *Job
}

// CalibrationStarted reports a job that continues its journal.
func (o *jobObserver) CalibrationStarted(info core.RunInfo) {
	if info.Resumed > 0 {
		o.s.cResumed.Inc()
		o.s.withLock(func() {
			o.s.appendEventLocked(o.j, Event{Type: "resumed", Evaluations: int64(info.Resumed)})
		})
	}
}

func (o *jobObserver) BatchProposed(int) {}

func (o *jobObserver) EvalCompleted(smp core.Sample, wait, dur time.Duration) {
	n := o.j.evals.Add(1)
	o.j.cEvals.Inc()
	if n%progressEvery == 0 {
		ev := Event{Type: "progress", Evaluations: n, BestLoss: o.j.best.Load()}
		o.s.withLock(func() { o.s.appendEventLocked(o.j, ev) })
	}
}

func (o *jobObserver) IncumbentImproved(smp core.Sample) {
	bl := obs.Float(smp.Loss)
	o.j.best.Store(&bl)
	o.j.gBest.Set(smp.Loss)
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
		BestLoss:        j.best.Load(),
		Error:           j.errMsg,
	}
	if !j.started.IsZero() {
		st.StartedUnixNS = j.started.UnixNano()
	}
	if !j.finished.IsZero() {
		st.FinishedUnixNS = j.finished.UnixNano()
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
