package obs

import (
	"fmt"
	"io"
	"math"
	"time"
)

// Event names the calibration bridge emits (see core.NewObsObserver).
// They are part of the trace schema documented in README.md.
const (
	EventCalibrationStarted  = "calibration_started"
	EventBatchProposed       = "batch_proposed"
	EventEvalCompleted       = "eval_completed"
	EventCacheHit            = "cache_hit"
	EventIncumbentImproved   = "incumbent_improved"
	EventSurrogateFitted     = "surrogate_fitted"
	EventSurrogateFitDetail  = "surrogate_fit_detail"
	EventAcquisitionSolved   = "acquisition_solved"
	EventCalibrationFinished = "calibration_finished"

	// Fault-tolerance events (see core.FaultObserver): recovery actions
	// taken by the runtime, so -replay can reconstruct a faulty run.
	EventPanicRecovered    = "panic_recovered"
	EventEvalRetried       = "eval_retry"
	EventEvalTimeout       = "eval_timeout"
	EventBreakerState      = "breaker_state"
	EventCheckpointWritten = "checkpoint_written"
	EventCheckpointFailed  = "checkpoint_failed"

	// Distributed-evaluation events (see the dist package). Lifecycle
	// events come from the coordinator itself; a dist_worker_eval record
	// is a worker's view of one evaluation — its timing on the worker's
	// clock, carried by the result frame — emitted by the coordinator
	// with `worker`, `source`, and clock-offset fields, so one trace file
	// holds the cross-process timeline keyed by lease ID. They are
	// additions to — never reorderings of — the calibration events, so
	// the calibration trajectory stays bitwise identical to a serial run.
	EventDistWorkerConnected    = "dist_worker_connected"
	EventDistWorkerDisconnected = "dist_worker_disconnected"
	EventDistLeaseRequeued      = "dist_lease_requeued"
	EventDistWorkerEval         = "dist_worker_eval"

	// Chaos-hardening events: a lease quarantined as poison after
	// exceeding its requeue cap (the dead-letter record), the
	// coordinator entering or leaving fleet-empty degraded mode, and a
	// lease evaluated on the coordinator's local fallback evaluator.
	EventDistLeaseQuarantined = "dist_lease_quarantined"
	EventDistDegraded         = "dist_degradation"
	EventDistLocalEval        = "dist_local_eval"

	// Async-calibration event: one record per completion the async
	// optimizer consumed, carrying `seq` (submission sequence number)
	// and `index` (position in consumption order). The seq sequence in
	// index order IS the run's completion order — feeding it back via
	// `simcal -async-replay` reproduces the run bitwise.
	EventDistAsyncCompletion = "dist_async_completion"
)

// ConvergencePoint is one point of a replayed best-loss-vs-time curve.
type ConvergencePoint struct {
	// Elapsed is the calibration wall-clock at which the evaluation
	// completed.
	Elapsed time.Duration
	// Evaluations is the number of evaluations completed so far.
	Evaluations int
	// Loss is the best loss seen up to and including this evaluation.
	Loss float64
}

// ReplayConvergence reconstructs the best-loss-vs-time curve (the
// paper's Figures 1 and 4) from a JSONL trace alone, without re-running
// the calibration. It consumes the eval_completed events in emission
// order and returns one point per evaluation, exactly mirroring
// core.Result.LossOverTime.
func ReplayConvergence(r io.Reader) ([]ConvergencePoint, error) {
	recs, err := ReadTrace(r)
	if err != nil {
		return nil, err
	}
	return ReplayConvergenceRecords(recs)
}

// ReplayConvergenceRecords is ReplayConvergence over pre-decoded
// records.
func ReplayConvergenceRecords(recs []Record) ([]ConvergencePoint, error) {
	var points []ConvergencePoint
	best := 0.0
	haveBest := false
	for _, rec := range recs {
		if rec.Name != EventEvalCompleted {
			continue
		}
		loss, ok := fieldFloat(rec.Fields, "loss")
		if !ok {
			return nil, fmt.Errorf("obs: eval_completed record %d lacks a loss field", rec.Seq)
		}
		// The calibrator normalizes NaN losses to +Inf before recording
		// them; apply the same rule here so a hand-edited or pre-fix
		// trace cannot poison the running minimum (NaN compares false
		// with everything, freezing the curve).
		if math.IsNaN(loss) {
			loss = math.Inf(1)
		}
		// elapsed_ns is emitted alongside elapsed_s for an exact
		// round-trip (float seconds lose nanosecond precision).
		var elapsed time.Duration
		if ns, ok := fieldFloat(rec.Fields, "elapsed_ns"); ok {
			elapsed = time.Duration(ns)
		} else if s, ok := fieldFloat(rec.Fields, "elapsed_s"); ok {
			elapsed = time.Duration(s * float64(time.Second))
		} else {
			return nil, fmt.Errorf("obs: eval_completed record %d lacks an elapsed_s field", rec.Seq)
		}
		if !haveBest || loss < best {
			best = loss
			haveBest = true
		}
		points = append(points, ConvergencePoint{
			Elapsed:     elapsed,
			Evaluations: len(points) + 1,
			Loss:        best,
		})
	}
	return points, nil
}

// ReplayAsyncOrder reconstructs an asynchronous run's completion order
// from its dist_async_completion trace events: the submission sequence
// numbers sorted by consumption index. The result feeds an async
// optimizer's replay mode, which re-runs the recorded order to a
// bitwise-identical result. An empty slice (no async events) means the
// trace came from a batch run.
func ReplayAsyncOrder(recs []Record) ([]int, error) {
	var order []int
	for _, rec := range recs {
		if rec.Name != EventDistAsyncCompletion {
			continue
		}
		seq, ok := fieldFloat(rec.Fields, "seq")
		if !ok {
			return nil, fmt.Errorf("obs: dist_async_completion record %d lacks a seq field", rec.Seq)
		}
		idx, ok := fieldFloat(rec.Fields, "index")
		if !ok {
			return nil, fmt.Errorf("obs: dist_async_completion record %d lacks an index field", rec.Seq)
		}
		i := int(idx)
		if i != len(order) {
			return nil, fmt.Errorf("obs: dist_async_completion records out of order: index %d at position %d", i, len(order))
		}
		if seq != math.Trunc(seq) || seq < 0 {
			return nil, fmt.Errorf("obs: dist_async_completion record %d has invalid seq %v", rec.Seq, seq)
		}
		order = append(order, int(seq))
	}
	return order, nil
}

// fieldFloat extracts a numeric field from a decoded JSON payload. The
// tracer encodes non-finite floats as the string sentinels "Inf",
// "-Inf", and "NaN" (JSON has no representation for them); fieldFloat
// decodes those back to their float64 values.
func fieldFloat(f Fields, key string) (float64, bool) {
	v, ok := f[key]
	if !ok {
		return 0, false
	}
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	case string:
		return parseSentinel(x)
	default:
		return 0, false
	}
}
