package core

import (
	"time"

	"simcal/internal/obs"
	"simcal/internal/resilience"
)

// RunInfo describes a calibration run for observers (and trace
// manifests).
type RunInfo struct {
	// Algorithm is the search algorithm's name.
	Algorithm string
	// Space lists the calibrated parameter names in declaration order.
	Space []string
	// Seed is the calibration's random seed.
	Seed int64
	// Budget is the wall-clock budget (zero when unbounded).
	Budget time.Duration
	// MaxEvaluations is the evaluation-count budget (zero when
	// unbounded).
	MaxEvaluations int
	// Workers is the loss-evaluation parallelism.
	Workers int
	// Resumed is the number of journaled consumptions a resumed run
	// serves from its journal (see Calibrator.Resume); zero for a fresh
	// run.
	Resumed int
}

// Observer receives calibration lifecycle callbacks. Implementations
// must be safe for concurrent use: EvalCompleted and IncumbentImproved
// are invoked from Problem.Evaluate, which algorithms may call from any
// goroutine. All callbacks are invoked synchronously on the calibration
// path, so they should be cheap; a nil Observer disables instrumentation
// with no overhead beyond a nil check.
//
// obs.NewObserver-style bridges exist in this package (NewObsObserver)
// to route these callbacks into the obs metrics registry and JSONL
// tracer.
type Observer interface {
	// CalibrationStarted fires once before the algorithm runs.
	CalibrationStarted(info RunInfo)
	// BatchProposed fires when Evaluate accepts a batch of candidates
	// (after budget truncation).
	BatchProposed(size int)
	// EvalCompleted fires once per completed loss evaluation, in history
	// order. wait is the time the evaluation spent queued behind the
	// batch's other members before a worker picked it up; dur is the
	// simulator's own run time.
	EvalCompleted(s Sample, wait, dur time.Duration)
	// IncumbentImproved fires when an evaluation lowers the best loss,
	// immediately after the corresponding EvalCompleted.
	IncumbentImproved(s Sample)
	// SurrogateFitted fires when a model-based algorithm refits its
	// surrogate on points training samples.
	SurrogateFitted(points int, dur time.Duration)
	// AcquisitionSolved fires when a model-based algorithm finishes
	// scoring candidates acquisition candidates; predict is the portion
	// of dur spent inside surrogate predictions.
	AcquisitionSolved(candidates int, predict, dur time.Duration)
	// CalibrationFinished fires once after the algorithm returns.
	CalibrationFinished(r *Result)
}

// CacheObserver is an optional extension of Observer. When a
// Calibrator runs with a cache and its Observer also implements
// CacheObserver, CacheHit fires for every evaluation answered from the
// cache, immediately after the sample's EvalCompleted callback (and
// before IncumbentImproved, if any). Observers that don't care about
// cache traffic need not implement it.
type CacheObserver interface {
	// CacheHit fires once per cache-served evaluation; s is the same
	// sample EvalCompleted just received.
	CacheHit(s Sample)
}

// SurrogateDetail carries fit-time performance counters from a
// surrogate that tracks them (currently the GP), reported once per
// refit alongside SurrogateFitted.
type SurrogateDetail struct {
	// Points is the number of training rows fitted.
	Points int
	// PrefixReused is the number of leading rows whose cached distance
	// and factorization state carried over from the previous fit.
	PrefixReused int
	// Incremental reports whether any cached state was reused.
	Incremental bool
	// CholeskyRetries counts jitter escalations during this fit.
	CholeskyRetries int
	// Jitter is the shared diagonal jitter the selected model used.
	Jitter float64
	// BufferAllocs counts fresh buffer allocations this fit (0 = fully
	// reused memory).
	BufferAllocs int
}

// SurrogateDetailObserver is an optional extension of Observer. When a
// model-based algorithm's surrogate exposes fit statistics and the
// Observer also implements this interface, SurrogateFitDetail fires
// immediately after each SurrogateFitted callback.
type SurrogateDetailObserver interface {
	// SurrogateFitDetail reports the most recent refit's counters.
	SurrogateFitDetail(d SurrogateDetail)
}

// AsyncObserver is an optional extension of Observer for asynchronous
// algorithms (see opt.AsyncBayesOpt). AsyncProposed fires once per
// async submission; AsyncCompletionConsumed fires when the driver
// absorbs one completion into history. Both run on the algorithm's
// driver goroutine. Timing arguments are wall-clock measurements and
// deliberately excluded from the determinism contract: replayed runs
// report different idle times but identical seq/index streams.
type AsyncObserver interface {
	// AsyncProposed fires after one async candidate is submitted: seq
	// is its submission sequence number, fantasies the number of
	// in-flight constant-liar rows the proposing fit conditioned on (0
	// for random-phase proposals), and idle how long the freed worker
	// slot waited for this refill.
	AsyncProposed(seq, fantasies int, idle time.Duration)
	// AsyncCompletionConsumed fires when the driver consumes one
	// completion: index is its position in consumption order (aligned
	// with history), and retracted reports whether a fantasy row
	// imputed for this evaluation was retracted from the surrogate.
	AsyncCompletionConsumed(seq, index int, loss float64, retracted bool)
}

// FaultObserver is an optional extension of Observer for the
// fault-tolerance runtime. When the Calibrator's Observer also
// implements it, recovery events — panics converted to errors, retried
// and timed-out evaluations, journal syncs — are reported as they
// happen. Implementations must be safe for concurrent use (evaluations
// run on the worker pool).
type FaultObserver interface {
	// PanicRecovered fires when a panic is converted to an error; where
	// identifies the recovery site ("simulator", "surrogate").
	PanicRecovered(where string)
	// Events are the retries and attempt timeouts of a resilience
	// policy, reported by the evaluation engine as it applies them.
	resilience.Events
	// CheckpointWritten fires after each journal sync (see
	// Calibrator.Checkpoint); evaluations is the count consumed by then.
	CheckpointWritten(evaluations int)
	// CheckpointFailed fires when the journal could not be opened or
	// written; the calibration continues unjournaled.
	CheckpointFailed(err error)
}

// obsObserver bridges Observer callbacks into an obs.Registry and an
// obs.Tracer (which may be nil: a nil tracer skips trace records). Each
// quantity has one series: a histogram's count and sum are the number of
// calls and their total, so no counter restates them.
type obsObserver struct {
	tracer *obs.Tracer

	incFits     *obs.Counter
	prefixRows  *obs.Counter
	cholRetries *obs.Counter
	bufAllocs   *obs.Counter
	asyncProps  *obs.Counter
	fantasyRows *obs.Counter
	retractions *obs.Counter
	asyncIdleNS *obs.Counter
	panics      *obs.Counter
	retries     *obs.Counter
	timeouts    *obs.Counter
	checkpoints *obs.Counter
	ckptUnix    *obs.Gauge
	bestLoss    *obs.Gauge
	evalHist    *obs.Histogram
	fitHist     *obs.Histogram
	acqHist     *obs.Histogram
	batchSize   *obs.Histogram
}

// NewObsObserver returns an Observer that updates calibration metrics in
// reg (under the "cal." and "opt." prefixes; README.md lists them) and
// emits the structured trace events documented in the obs package (and
// README.md) to tracer. Evaluations, batches, surrogate fits and
// acquisition solves are counted by their histograms: the counts of
// cal.eval_ns, cal.batch_size, opt.fit_ns and opt.acquisition_ns.
// A nil reg means a private registry, as it does for dist.NewCoordinator;
// a nil tracer emits nothing.
func NewObsObserver(reg *obs.Registry, tracer *obs.Tracer) Observer {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &obsObserver{
		tracer:      tracer,
		incFits:     reg.Counter("opt.surrogate_incremental_fits"),
		prefixRows:  reg.Counter("opt.surrogate_prefix_rows_reused"),
		cholRetries: reg.Counter("opt.surrogate_chol_retries"),
		bufAllocs:   reg.Counter("opt.surrogate_buffer_allocs"),
		asyncProps:  reg.Counter("opt.async_proposals"),
		fantasyRows: reg.Counter("opt.async_fantasy_rows"),
		retractions: reg.Counter("opt.async_retractions"),
		asyncIdleNS: reg.Counter("opt.async_worker_idle_ns"),
		panics:      reg.Counter("eval_panics_recovered"),
		retries:     reg.Counter("eval_retries"),
		timeouts:    reg.Counter("eval_timeouts"),
		checkpoints: reg.Counter("checkpoints_written"),
		ckptUnix:    reg.Gauge("cal.checkpoint_unix_ns"),
		bestLoss:    reg.Gauge("cal.best_loss"),
		evalHist:    reg.Histogram("cal.eval_ns"),
		fitHist:     reg.Histogram("opt.fit_ns"),
		acqHist:     reg.Histogram("opt.acquisition_ns"),
		batchSize:   reg.Histogram("cal.batch_size"),
	}
}

// CalibrationStarted implements Observer.
func (o *obsObserver) CalibrationStarted(info RunInfo) {
	o.tracer.EmitManifest(obs.Manifest{
		Algorithm: info.Algorithm,
		Space:     info.Space,
		Seed:      info.Seed,
		BudgetS:   info.Budget.Seconds(),
		MaxEvals:  info.MaxEvaluations,
		Workers:   info.Workers,
		Version:   obs.BuildVersion(),
	})
	fields := obs.Fields{"algorithm": info.Algorithm, "workers": info.Workers}
	if info.Resumed > 0 {
		fields["resumed"] = info.Resumed
	}
	o.tracer.Emit(obs.EventCalibrationStarted, fields)
}

// BatchProposed implements Observer.
func (o *obsObserver) BatchProposed(size int) {
	o.batchSize.Observe(int64(size))
	o.tracer.Emit(obs.EventBatchProposed, obs.Fields{"size": size})
}

// EvalCompleted implements Observer.
func (o *obsObserver) EvalCompleted(s Sample, wait, dur time.Duration) {
	o.evalHist.ObserveDuration(dur)
	o.tracer.Emit(obs.EventEvalCompleted, obs.Fields{
		"loss":      s.Loss,
		"elapsed_s": s.Elapsed.Seconds(),
		"wait_ns":   int64(wait),
		"dur_ns":    int64(dur),
	})
}

// CacheHit implements CacheObserver.
func (o *obsObserver) CacheHit(s Sample) {
	o.tracer.Emit(obs.EventCacheHit, obs.Fields{
		"loss":      s.Loss,
		"elapsed_s": s.Elapsed.Seconds(),
	})
}

// IncumbentImproved implements Observer.
func (o *obsObserver) IncumbentImproved(s Sample) {
	o.bestLoss.SetMin(s.Loss)
	o.tracer.Emit(obs.EventIncumbentImproved, obs.Fields{
		"loss":      s.Loss,
		"elapsed_s": s.Elapsed.Seconds(),
		"point":     s.Point,
	})
}

// SurrogateFitted implements Observer.
func (o *obsObserver) SurrogateFitted(points int, dur time.Duration) {
	o.fitHist.ObserveDuration(dur)
	o.tracer.Emit(obs.EventSurrogateFitted, obs.Fields{
		"points": points,
		"dur_ns": int64(dur),
	})
}

// SurrogateFitDetail implements SurrogateDetailObserver.
func (o *obsObserver) SurrogateFitDetail(d SurrogateDetail) {
	if d.Incremental {
		o.incFits.Inc()
	}
	o.prefixRows.Add(int64(d.PrefixReused))
	o.cholRetries.Add(int64(d.CholeskyRetries))
	o.bufAllocs.Add(int64(d.BufferAllocs))
	o.tracer.Emit(obs.EventSurrogateFitDetail, obs.Fields{
		"points":        d.Points,
		"prefix_reused": d.PrefixReused,
		"incremental":   d.Incremental,
		"chol_retries":  d.CholeskyRetries,
		"jitter":        d.Jitter,
		"buffer_allocs": d.BufferAllocs,
	})
}

// AcquisitionSolved implements Observer.
func (o *obsObserver) AcquisitionSolved(candidates int, predict, dur time.Duration) {
	o.acqHist.ObserveDuration(dur)
	o.tracer.Emit(obs.EventAcquisitionSolved, obs.Fields{
		"candidates": candidates,
		"predict_ns": int64(predict),
		"dur_ns":     int64(dur),
	})
}

// AsyncProposed implements AsyncObserver.
func (o *obsObserver) AsyncProposed(seq, fantasies int, idle time.Duration) {
	o.asyncProps.Inc()
	o.fantasyRows.Add(int64(fantasies))
	o.asyncIdleNS.Add(int64(idle))
}

// AsyncCompletionConsumed implements AsyncObserver.
func (o *obsObserver) AsyncCompletionConsumed(seq, index int, loss float64, retracted bool) {
	if retracted {
		o.retractions.Inc()
	}
}

// PanicRecovered implements FaultObserver.
func (o *obsObserver) PanicRecovered(where string) {
	o.panics.Inc()
	o.tracer.Emit(obs.EventPanicRecovered, obs.Fields{"where": where})
}

// EvalRetried implements FaultObserver.
func (o *obsObserver) EvalRetried(attempt int, delay time.Duration, cause error) {
	o.retries.Inc()
	o.tracer.Emit(obs.EventEvalRetried, obs.Fields{
		"attempt":  attempt,
		"delay_ns": int64(delay),
		"cause":    cause.Error(),
	})
}

// EvalTimedOut implements FaultObserver.
func (o *obsObserver) EvalTimedOut(timeout time.Duration) {
	o.timeouts.Inc()
	o.tracer.Emit(obs.EventEvalTimeout, obs.Fields{"timeout_ns": int64(timeout)})
}

// CheckpointWritten implements FaultObserver.
func (o *obsObserver) CheckpointWritten(evaluations int) {
	o.checkpoints.Inc()
	// Wall-clock stamp of the latest journal sync; /statusz renders it as
	// checkpoint_age_s. float64 loses a few hundred ns of the unix
	// timestamp — irrelevant at age granularity.
	o.ckptUnix.Set(float64(time.Now().UnixNano()))
	o.tracer.Emit(obs.EventCheckpointWritten, obs.Fields{"evaluations": evaluations})
}

// CheckpointFailed implements FaultObserver.
func (o *obsObserver) CheckpointFailed(err error) {
	o.tracer.Emit(obs.EventCheckpointFailed, obs.Fields{"error": err.Error()})
}

// CalibrationFinished implements Observer.
func (o *obsObserver) CalibrationFinished(r *Result) {
	o.tracer.Emit(obs.EventCalibrationFinished, obs.Fields{
		"best_loss":   r.Best.Loss,
		"evaluations": r.Evaluations,
		"elapsed_s":   r.Elapsed.Seconds(),
		"algorithm":   r.Algorithm,
	})
	o.tracer.Flush()
}
