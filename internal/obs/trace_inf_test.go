package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// namedPoint mimics core.Point: a named map type that the sanitizer must
// handle through reflection, not a direct type switch.
type namedPoint map[string]float64

// TestTraceNonFiniteFields is the regression test for trace poisoning: a
// failing simulator configuration yields +Inf losses, and encoding/json
// refuses non-finite floats — one such record used to fail the encoder
// and silently drop every later event. Non-finite values must now round-
// trip as string sentinels with the rest of the trace intact.
// (Named TestTrace… so the CI determinism job replays it with -count=2.)
func TestTraceNonFiniteFields(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(fakeClock(time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC), time.Second))

	point := namedPoint{"latency": math.Inf(1), "bandwidth": 125.0}
	tr.Emit(EventEvalCompleted, Fields{"loss": math.Inf(1), "elapsed_s": 0.1, "point": point})
	tr.Emit(EventEvalCompleted, Fields{"loss": math.Inf(-1), "elapsed_s": 0.2})
	tr.Emit(EventEvalCompleted, Fields{"loss": math.NaN(), "elapsed_s": 0.3})
	tr.Emit(EventEvalCompleted, Fields{"loss": 0.5, "elapsed_s": 0.4, "probes": []float64{1, math.Inf(1)}})
	// The event after the poisonous ones is the regression: it must survive.
	tr.Emit(EventIncumbentImproved, Fields{"loss": 0.5})
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush after non-finite fields = %v, want nil", err)
	}
	// Sanitization is copy-on-write: the caller's maps stay untouched.
	if !math.IsInf(point["latency"], 1) {
		t.Fatal("Emit mutated the caller's field map")
	}

	recs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want all 5 (later events must survive)", len(recs))
	}
	for i, want := range []any{"Inf", "-Inf", "NaN", 0.5} {
		if got := recs[i].Fields["loss"]; got != want {
			t.Errorf("record %d loss = %v (%T), want %v", i, got, got, want)
		}
	}
	nested, ok := recs[0].Fields["point"].(map[string]any)
	if !ok {
		t.Fatalf("nested point decoded as %T", recs[0].Fields["point"])
	}
	if nested["latency"] != "Inf" || nested["bandwidth"] != 125.0 {
		t.Errorf("nested map sanitized wrong: %v", nested)
	}

	// Float reads the sentinels back into non-finite floats.
	for i, want := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		var got Float
		b, _ := json.Marshal(recs[i].Fields["loss"])
		if err := got.UnmarshalJSON(b); err != nil || math.Float64bits(float64(got)) != math.Float64bits(want) {
			t.Errorf("record %d loss %s reads back as %v (%v), want %v", i, b, got, err, want)
		}
	}
}

// TestTraceSanitizeValue pins the sentinel encoding and the pass-through
// of finite values at every nesting level.
func TestTraceSanitizeValue(t *testing.T) {
	if v, changed := sanitizeValue(1.5); changed || v != 1.5 {
		t.Errorf("finite float changed: %v %v", v, changed)
	}
	if v, _ := sanitizeValue(math.Inf(1)); v != "Inf" {
		t.Errorf("+Inf → %v", v)
	}
	if v, _ := sanitizeValue(math.Inf(-1)); v != "-Inf" {
		t.Errorf("-Inf → %v", v)
	}
	if v, _ := sanitizeValue(math.NaN()); v != "NaN" {
		t.Errorf("NaN → %v", v)
	}
	if v, _ := sanitizeValue(float32(math.Inf(1))); v != "Inf" {
		t.Errorf("float32 +Inf → %v", v)
	}
	if v, changed := sanitizeValue("already a string"); changed {
		t.Errorf("string changed: %v", v)
	}
	// A finite named map passes through unchanged (no pointless copy).
	m := namedPoint{"a": 1}
	if v, changed := sanitizeValue(m); changed {
		t.Errorf("finite named map copied: %v", v)
	}
	// parseSentinel inverts the sentinels.
	for s, want := range map[string]float64{"Inf": math.Inf(1), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		got, ok := parseSentinel(s)
		if !ok || got != want {
			t.Errorf("parseSentinel(%q) = %v, %v", s, got, ok)
		}
	}
	if got, ok := parseSentinel("NaN"); !ok || !math.IsNaN(got) {
		t.Errorf("parseSentinel(NaN) = %v, %v", got, ok)
	}
	if _, ok := parseSentinel("not a number"); ok {
		t.Error("parseSentinel accepted an arbitrary string")
	}
}

// TestAppendFloatMatchesEncodingJSON: for finite values appendFloat
// writes exactly what encoding/json writes for a float64 — random bit
// patterns of every exponent, and the edges of the 'e' form — and
// Float's UnmarshalJSON reads every form back bit for bit.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	vals := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		-1e-7, 1e-7, 123e-9, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	for i := 0; i < 20000; i++ {
		if v := math.Float64frombits(rng.Uint64()); !math.IsInf(v, 0) && !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", v, got, want)
		}
		var back Float
		if err := back.UnmarshalJSON(want); err != nil || math.Float64bits(float64(back)) != math.Float64bits(v) {
			t.Fatalf("UnmarshalJSON(%s) = %v, %v; want %v", want, back, err, v)
		}
	}
	for _, bad := range []string{`true`, `{}`, `"nan"`, `1e400`} {
		var f Float
		if err := f.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("UnmarshalJSON(%s) = %v, want an error", bad, f)
		}
	}
}
