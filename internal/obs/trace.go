package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"time"
)

// Fields carries a record's structured payload. Values must be
// JSON-encodable (numbers, strings, bools, slices, maps). Non-finite
// floats are allowed: the tracer encodes them as the string sentinels
// "Inf", "-Inf", and "NaN" (JSON has no representation for them), and
// the replay helpers decode the sentinels back.
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
// that persists or ships a loss — the wire protocol, checkpoints,
// result files, the job API — uses this one type, with the tracer's
// string sentinels ("Inf", "-Inf", "NaN"); finite values use Go's
// shortest round-trip encoding, so they survive bitwise.
type Float float64

// MarshalJSON implements json.Marshaler.
func (v Float) MarshalJSON() ([]byte, error) {
	if s, bad := nonFiniteSentinel(float64(v)); bad {
		return []byte(`"` + s + `"`), nil
	}
	return json.Marshal(float64(v))
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		f, ok := parseSentinel(s)
		if !ok {
			return fmt.Errorf("obs: invalid float sentinel %q", s)
		}
		*v = Float(f)
		return nil
	}
	return json.Unmarshal(b, (*float64)(v))
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

// TraceManifest returns the first manifest record of a decoded trace,
// or false when the trace has none.
func TraceManifest(recs []Record) (Manifest, bool) {
	for _, rec := range recs {
		if rec.Name != ManifestName {
			continue
		}
		b, err := json.Marshal(rec.Fields)
		if err != nil {
			return Manifest{}, false
		}
		var m Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return Manifest{}, false
		}
		return m, true
	}
	return Manifest{}, false
}
