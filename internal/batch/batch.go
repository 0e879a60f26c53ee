// Package batch implements the third PDC domain the paper's conclusion
// names as future work for the methodology: batch scheduling on HPC
// clusters (the Alea/Batsim use case). It provides an event-driven
// cluster scheduler simulator with FCFS and EASY-backfilling policies, a
// synthetic Parallel Workloads Archive-style workload generator, and the
// ground-truth + loss plumbing to calibrate the simulator with the core
// framework — demonstrating that the calibration methodology generalizes
// across PDC domains.
package batch

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"simcal/internal/stats"
)

// Job is one batch job, following the Standard Workload Format's core
// fields.
type Job struct {
	// ID is the job number (unique, positive).
	ID int
	// Submit is the submission time in seconds since the log start.
	Submit float64
	// Runtime is the job's actual runtime on the reference system, in
	// seconds.
	Runtime float64
	// Requested is the user's requested (wall-clock limit) time; EASY
	// uses it for reservations. Always ≥ Runtime in valid logs.
	Requested float64
	// Procs is the number of processors the job occupies.
	Procs int
}

// Validate reports whether the job is well-formed.
func (j Job) Validate() error {
	switch {
	case j.ID <= 0:
		return fmt.Errorf("batch: job with non-positive id %d", j.ID)
	case j.Submit < 0:
		return fmt.Errorf("batch: job %d with negative submit time", j.ID)
	case j.Runtime <= 0:
		return fmt.Errorf("batch: job %d with non-positive runtime", j.ID)
	case j.Requested < j.Runtime:
		return fmt.Errorf("batch: job %d requested %g below runtime %g", j.ID, j.Requested, j.Runtime)
	case j.Procs <= 0:
		return fmt.Errorf("batch: job %d with non-positive processors", j.ID)
	}
	return nil
}

// Policy selects the scheduling algorithm — the scheduler-side level of
// detail option of this case study.
type Policy int

const (
	// FCFS starts jobs strictly in arrival order.
	FCFS Policy = iota
	// EASY is FCFS plus EASY backfilling: later jobs may jump the queue
	// if they do not delay the reserved start of the queue head.
	EASY
)

func (p Policy) String() string {
	if p == EASY {
		return "easy"
	}
	return "fcfs"
}

// NoiseModel injects run-to-run variability into ground-truth
// generation (never used by calibrated simulators).
type NoiseModel struct {
	Seed int64
	// RuntimeSpread perturbs each job's runtime.
	RuntimeSpread float64
	// OverheadSpread perturbs each dispatch overhead.
	OverheadSpread float64
}

// Config holds the calibratable parameters of the simulator.
type Config struct {
	// Procs is the cluster size in processors.
	Procs int
	// SpeedScale divides job runtimes: the simulated machine runs jobs
	// SpeedScale× faster than the reference log's machine.
	SpeedScale float64
	// StartupOverhead is added to every job's execution (prolog/epilog,
	// image load — the middleware detail batch datasheets omit).
	StartupOverhead float64
	// SchedInterval quantizes scheduling passes: the scheduler only
	// dispatches at multiples of this period (0 = continuous).
	SchedInterval float64

	Noise *NoiseModel
}

// Result reports a simulated schedule.
type Result struct {
	// Waits maps job ID → wait time (start − submit).
	Waits map[int]float64
	// Starts and Ends map job ID → dispatch and completion times.
	Starts, Ends map[int]float64
	// Makespan is the completion time of the last job.
	Makespan float64
}

// BoundedSlowdown returns the job's bounded slowdown with the
// conventional 10-second threshold.
func (r *Result) BoundedSlowdown(j Job) float64 {
	run := r.Ends[j.ID] - r.Starts[j.ID]
	den := math.Max(run, 10)
	return math.Max(1, (r.Waits[j.ID]+run)/den)
}

// runningJob tracks an executing job's expected release for reservations.
type runningJob struct {
	job      Job
	end      float64 // actual completion
	expected float64 // requested-time-based completion (for reservations)
}

type eventKind int

const (
	evSubmit eventKind = iota
	evFinish
)

type event struct {
	time float64
	kind eventKind
	seq  int
	job  Job
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind // finishes release procs before submits scan
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// Simulate runs the workload through the scheduler and returns per-job
// times. Jobs are processed in submit order; ties break by ID.
// Deterministic unless cfg.Noise is set.
func Simulate(policy Policy, cfg Config, jobs []Job) (*Result, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("batch: non-positive cluster size")
	}
	if cfg.SpeedScale <= 0 {
		return nil, fmt.Errorf("batch: non-positive speed scale")
	}
	if cfg.StartupOverhead < 0 || cfg.SchedInterval < 0 {
		return nil, fmt.Errorf("batch: negative overhead or interval")
	}
	var rng *stats.RNG
	if cfg.Noise != nil {
		rng = stats.NewRNG(cfg.Noise.Seed)
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if j.Procs > cfg.Procs {
			return nil, fmt.Errorf("batch: job %d needs %d > %d processors", j.ID, j.Procs, cfg.Procs)
		}
	}

	s := &schedState{
		policy: policy,
		cfg:    cfg,
		rng:    rng,
		free:   cfg.Procs,
		res: &Result{
			Waits:  make(map[int]float64, len(jobs)),
			Starts: make(map[int]float64, len(jobs)),
			Ends:   make(map[int]float64, len(jobs)),
		},
	}
	var q eventQueue
	for i, j := range jobs {
		heap.Push(&q, event{time: j.Submit, kind: evSubmit, seq: i, job: j})
	}
	seq := len(jobs)
	for q.Len() > 0 {
		ev := heap.Pop(&q).(event)
		s.now = ev.time
		switch ev.kind {
		case evSubmit:
			s.queue = append(s.queue, ev.job)
		case evFinish:
			s.free += ev.job.Procs
			s.removeRunning(ev.job.ID)
		}
		// Scheduling passes happen on the configured cycle boundary at or
		// after the event.
		passTime := s.now
		if cfg.SchedInterval > 0 {
			passTime = math.Ceil(s.now/cfg.SchedInterval) * cfg.SchedInterval
		}
		started := s.schedulePass(passTime)
		for _, st := range started {
			heap.Push(&q, event{time: st.end, kind: evFinish, seq: seq, job: st.job})
			seq++
		}
	}
	if len(s.queue) > 0 {
		return nil, fmt.Errorf("batch: %d jobs never started", len(s.queue))
	}
	return s.res, nil
}

type started struct {
	job Job
	end float64
}

type schedState struct {
	policy  Policy
	cfg     Config
	rng     *stats.RNG
	now     float64
	free    int
	queue   []Job // FCFS order
	running []runningJob
	res     *Result
}

func (s *schedState) removeRunning(id int) {
	for i, r := range s.running {
		if r.job.ID == id {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
}

// execTimes returns the actual and requested-based execution durations
// of a job under the configuration (with ground-truth noise if enabled).
func (s *schedState) execTimes(j Job) (actual, expected float64) {
	ovh := s.cfg.StartupOverhead
	run := j.Runtime / s.cfg.SpeedScale
	if s.rng != nil {
		if s.cfg.Noise.RuntimeSpread > 0 {
			run *= s.rng.NoisyScale(s.cfg.Noise.RuntimeSpread)
		}
		if ovh > 0 && s.cfg.Noise.OverheadSpread > 0 {
			ovh *= s.rng.NoisyScale(s.cfg.Noise.OverheadSpread)
		}
	}
	actual = run + ovh
	expected = j.Requested/s.cfg.SpeedScale + s.cfg.StartupOverhead
	if expected < actual {
		expected = actual
	}
	return actual, expected
}

// start dispatches a job at time t.
func (s *schedState) start(j Job, t float64) started {
	actual, expected := s.execTimes(j)
	s.free -= j.Procs
	s.running = append(s.running, runningJob{job: j, end: t + actual, expected: t + expected})
	s.res.Starts[j.ID] = t
	s.res.Waits[j.ID] = t - j.Submit
	s.res.Ends[j.ID] = t + actual
	if t+actual > s.res.Makespan {
		s.res.Makespan = t + actual
	}
	return started{job: j, end: t + actual}
}

// schedulePass dispatches queued jobs at time t per the policy and
// returns the started jobs.
func (s *schedState) schedulePass(t float64) []started {
	var out []started
	// FCFS phase: start queue-head jobs while they fit.
	for len(s.queue) > 0 && s.queue[0].Procs <= s.free {
		out = append(out, s.start(s.queue[0], t))
		s.queue = s.queue[1:]
	}
	if s.policy != EASY || len(s.queue) == 0 {
		return out
	}
	// EASY backfilling: reserve the head's start, then start any later
	// job that does not interfere with the reservation.
	head := s.queue[0]
	shadow, extra := s.reservation(head)
	i := 1
	for i < len(s.queue) {
		j := s.queue[i]
		if j.Procs <= s.free {
			_, expected := s.execTimes(j)
			_ = expected
			// Recompute the candidate's expected completion without
			// consuming noise twice: use requested-based duration.
			expEnd := t + j.Requested/s.cfg.SpeedScale + s.cfg.StartupOverhead
			fitsBefore := expEnd <= shadow
			fitsBeside := j.Procs <= extra
			if fitsBefore || fitsBeside {
				out = append(out, s.start(j, t))
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				// The reservation may have moved (more procs busy now).
				shadow, extra = s.reservation(head)
				continue
			}
		}
		i++
	}
	return out
}

// reservation computes the EASY shadow time (earliest start of the
// queue head based on expected job completions) and the processors left
// over at that time beyond the head's need.
func (s *schedState) reservation(head Job) (shadow float64, extra int) {
	if head.Procs <= s.free {
		return s.now, s.free - head.Procs
	}
	rel := append([]runningJob(nil), s.running...)
	sort.Slice(rel, func(i, j int) bool { return rel[i].expected < rel[j].expected })
	avail := s.free
	for _, r := range rel {
		avail += r.job.Procs
		if avail >= head.Procs {
			return r.expected, avail - head.Procs
		}
	}
	// Unreachable for valid configurations (head fits an empty cluster).
	return math.Inf(1), 0
}
