package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"
	"time"
)

// Fields carries a record's structured payload. Values must be
// JSON-encodable (numbers, strings, bools, slices, maps). Non-finite
// floats are allowed: the tracer encodes them as the string sentinels
// "Inf", "-Inf", and "NaN" (JSON has no representation for them), and
// Float reads them back.
type Fields map[string]any

// Record is one line of a JSONL trace.
type Record struct {
	// T is the wall-clock timestamp (RFC 3339, from the tracer's clock).
	T time.Time `json:"ts"`
	// ElapsedS is seconds since the tracer was created — the trace's
	// monotone time axis.
	ElapsedS float64 `json:"t_s"`
	// Seq is the record's position in emission order, starting at 0.
	Seq int64 `json:"seq"`
	// Name identifies the event (e.g. "eval_completed", "manifest").
	Name string `json:"name"`
	// Fields is the event payload.
	Fields Fields `json:"fields,omitempty"`
}

// Manifest describes one calibration run, emitted as the trace's first
// record so a trace file is self-describing.
type Manifest struct {
	Algorithm string   `json:"algorithm"`
	Space     []string `json:"space"`
	Seed      int64    `json:"seed"`
	BudgetS   float64  `json:"budget_s,omitempty"`
	MaxEvals  int      `json:"max_evals,omitempty"`
	Workers   int      `json:"workers,omitempty"`
	Version   string   `json:"version"`
	Case      string   `json:"case,omitempty"`
	Loss      string   `json:"loss,omitempty"`
}

// ManifestName is the record name under which a run manifest is emitted.
const ManifestName = "manifest"

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

	// Fault-tolerance events (see core.FaultObserver): the recovery
	// actions the runtime took, so a trace shows how a faulty run got
	// through.
	EventPanicRecovered    = "panic_recovered"
	EventEvalRetried       = "eval_retry"
	EventEvalTimeout       = "eval_timeout"
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
)

// Tracer emits structured JSONL records. All methods are safe for
// concurrent use and safe on a nil receiver (a nil *Tracer is the
// disabled tracer and costs one branch per call).
type Tracer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	clock Clock
	start time.Time
	seq   int64
	err   error
}

// NewTracer returns a tracer writing JSONL records to w. Call Flush (or
// Close the underlying file after Flush) when done.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: bufio.NewWriter(w), clock: time.Now}
	t.start = t.clock()
	return t
}

// SetClock replaces the tracer's time source (for deterministic tests)
// and re-anchors the trace's start time. Must be called before the
// first record is emitted.
func (t *Tracer) SetClock(c Clock) {
	if t == nil || c == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = c
	t.start = c()
}

// Emit writes one record. Events with the same name share a schema
// defined by the caller; fields may be nil.
func (t *Tracer) Emit(name string, fields Fields) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(name, fields)
}

func (t *Tracer) emitLocked(name string, fields Fields) {
	if t.err != nil {
		return
	}
	now := t.clock()
	rec := Record{
		T:        now,
		ElapsedS: now.Sub(t.start).Seconds(),
		Seq:      t.seq,
		Name:     name,
		Fields:   sanitizeFields(fields),
	}
	t.seq++
	b, err := json.Marshal(rec)
	if err != nil {
		t.err = err
		return
	}
	b = append(b, '\n')
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// sanitizeFields returns fields with every non-finite float replaced by
// the string sentinels "Inf", "-Inf", or "NaN", recursing into nested
// maps and slices. JSON has no encoding for non-finite numbers, so
// without this a single +Inf loss (a failed evaluation) would make
// json.Marshal fail and permanently poison the tracer. Payloads with
// only finite values — the common case — are returned as-is, without
// copying.
func sanitizeFields(fields Fields) Fields {
	var out Fields
	for k, v := range fields {
		s, changed := sanitizeValue(v)
		if !changed {
			continue
		}
		if out == nil {
			// Copy-on-write: never mutate the caller's map.
			out = make(Fields, len(fields))
			for k2, v2 := range fields {
				out[k2] = v2
			}
		}
		out[k] = s
	}
	if out == nil {
		return fields
	}
	return out
}

// sanitizeValue replaces non-finite floats in v (including inside
// nested maps, slices, and arrays, via reflection — payload values such
// as core.Point are named map types that a type switch would miss) with
// string sentinels. It reports whether anything was replaced; when
// nothing was, v is returned untouched.
func sanitizeValue(v any) (any, bool) {
	switch x := v.(type) {
	case float64:
		if s, bad := nonFiniteSentinel(x); bad {
			return s, true
		}
		return v, false
	case float32:
		if s, bad := nonFiniteSentinel(float64(x)); bad {
			return s, true
		}
		return v, false
	case nil, bool, string, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64:
		return v, false
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Float32, reflect.Float64:
		if s, bad := nonFiniteSentinel(rv.Float()); bad {
			return s, true
		}
		return v, false
	case reflect.Map:
		var out map[string]any
		iter := rv.MapRange()
		for iter.Next() {
			if s, changed := sanitizeValue(iter.Value().Interface()); changed {
				if out == nil {
					out = make(map[string]any, rv.Len())
					i2 := rv.MapRange()
					for i2.Next() {
						out[fmt.Sprint(i2.Key().Interface())] = i2.Value().Interface()
					}
				}
				out[fmt.Sprint(iter.Key().Interface())] = s
			}
		}
		if out == nil {
			return v, false
		}
		return out, true
	case reflect.Slice, reflect.Array:
		var out []any
		for i := 0; i < rv.Len(); i++ {
			if s, changed := sanitizeValue(rv.Index(i).Interface()); changed {
				if out == nil {
					out = make([]any, rv.Len())
					for j := 0; j < rv.Len(); j++ {
						out[j] = rv.Index(j).Interface()
					}
				}
				out[i] = s
			}
		}
		if out == nil {
			return v, false
		}
		return out, true
	}
	return v, false
}

// nonFiniteSentinel maps a non-finite float to its trace sentinel
// string, reporting false for finite values.
func nonFiniteSentinel(f float64) (string, bool) {
	switch {
	case math.IsInf(f, 1):
		return "Inf", true
	case math.IsInf(f, -1):
		return "-Inf", true
	case math.IsNaN(f):
		return "NaN", true
	}
	return "", false
}

// parseSentinel inverts nonFiniteSentinel ("+Inf" is accepted as an
// alias), reporting false for any other string.
func parseSentinel(s string) (float64, bool) {
	switch s {
	case "Inf", "+Inf":
		return math.Inf(1), true
	case "-Inf":
		return math.Inf(-1), true
	case "NaN":
		return math.NaN(), true
	}
	return 0, false
}

// Float is a float64 whose JSON form survives non-finite values:
// failed evaluations are recorded as +Inf losses and quietly broken
// simulators return NaN, but encoding/json rejects both. Everything
// that writes a loss as JSON — checkpoints, result files, the job API —
// uses this one type, with the tracer's string sentinels ("Inf",
// "-Inf", "NaN"); finite values use Go's shortest round-trip encoding,
// so they survive bitwise. (The wire protocol names it WireFloat and
// sends its bits, not this form.)
type Float float64

// MarshalJSON implements json.Marshaler.
func (v Float) MarshalJSON() ([]byte, error) {
	return appendFloat(nil, float64(v)), nil
}

// AppendJSON appends the bytes MarshalJSON returns to dst. For a finite
// v they are also what encoding/json writes for the float64.
func (v Float) AppendJSON(dst []byte) []byte { return appendFloat(dst, float64(v)) }

// UnmarshalJSON implements json.Unmarshaler. It accepts what
// appendFloat writes, "+Inf" as an alias of "Inf", and null, which
// leaves v as it was.
func (v *Float) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	f, err := parseFloat(b)
	if err != nil {
		return err
	}
	*v = Float(f)
	return nil
}

// appendFloat appends the JSON form of f to dst, the form Float has
// everywhere it is written: a non-finite f as its quoted sentinel
// ("Inf", "-Inf", "NaN"), a finite one exactly as encoding/json writes
// a float64 — the shortest digits that round-trip, in exponent form
// below 1e-6 and from 1e21 on.
func appendFloat(dst []byte, f float64) []byte {
	if s, bad := nonFiniteSentinel(f); bad {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json writes e-7, not strconv's e-07.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// parseFloat inverts appendFloat. Like UnmarshalJSON it may assume b
// is one valid JSON value: a number, which strconv parses as
// encoding/json does, or a quoted sentinel. Anything else, and a number
// a float64 cannot hold, is an error.
func parseFloat(b []byte) (float64, error) {
	if len(b) >= 2 && b[0] == '"' {
		name := b[1 : len(b)-1]
		if bytes.IndexByte(name, '\\') >= 0 {
			// An escaped sentinel: encoding/json unquotes it. Nothing
			// this repository writes takes this path.
			var str string
			if err := json.Unmarshal(b, &str); err != nil {
				return 0, err
			}
			name = []byte(str)
		}
		f, ok := parseSentinel(string(name))
		if !ok {
			return 0, fmt.Errorf("obs: invalid float sentinel %q", name)
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	switch {
	case errors.Is(err, strconv.ErrRange):
		return 0, fmt.Errorf("obs: float %s out of range", b)
	case err != nil:
		return 0, fmt.Errorf("obs: %s is not a float", b)
	}
	return f, nil
}

// EmitManifest writes the run manifest record.
func (t *Tracer) EmitManifest(m Manifest) {
	if t == nil {
		return
	}
	b, err := json.Marshal(m)
	if err != nil {
		return
	}
	var f Fields
	if err := json.Unmarshal(b, &f); err != nil {
		return
	}
	t.Emit(ManifestName, f)
}

// Flush writes buffered records through to the underlying writer and
// reports the first error encountered while tracing. Emit never reports
// errors itself (it sits on the calibration hot path), so Flush is
// where a tracing failure — a full disk, a closed writer — first
// surfaces; once one occurs, subsequent records are dropped.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// ReadTrace decodes every record of a JSONL trace. Blank lines are
// skipped; a malformed line is an error identifying its line number.
func ReadTrace(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var recs []Record
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return recs, nil
}
