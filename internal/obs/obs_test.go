package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGaugeWatermarks(t *testing.T) {
	var lo Gauge
	lo.SetMin(4)
	lo.SetMin(9)
	if got := lo.Value(); got != 4 {
		t.Fatalf("SetMin gauge = %g, want 4", got)
	}
	lo.SetMin(0.25)
	if got := lo.Value(); got != 0.25 {
		t.Fatalf("SetMin gauge = %g, want 0.25", got)
	}
}

// A written 0 is a value like any other: a watermark must not mistake it
// for "never written", and an unwritten gauge takes any first value,
// zero and negatives included.
func TestGaugeFirstWrite(t *testing.T) {
	lo, set := (*Gauge).SetMin, (*Gauge).Set
	type op struct {
		f func(*Gauge, float64)
		v float64
	}
	for _, tc := range []struct {
		name string
		ops  []op
		want float64
	}{
		{"unwritten", nil, 0},
		{"SetMin keeps a zero loss", []op{{lo, 0}, {lo, 5}}, 0},
		{"SetMin after Set(0)", []op{{set, 0}, {lo, 5}}, 0},
		{"SetMin takes a negative first", []op{{lo, -2}, {lo, 1}}, -2},
		{"Set overrides a watermark", []op{{lo, 1}, {set, 4}, {lo, 5}}, 4},
	} {
		var g Gauge
		for _, o := range tc.ops {
			o.f(&g, o.v)
		}
		if got := g.Value(); got != tc.want || math.Signbit(got) != math.Signbit(tc.want) {
			t.Errorf("%s: gauge = %g, want %g", tc.name, got, tc.want)
		}
	}
	var g Gauge
	g.Set(math.NaN())
	if !math.IsNaN(g.Value()) {
		t.Errorf("Set(NaN): gauge = %g, want NaN", g.Value())
	}
}

func TestHistogramStat(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	st := h.Stat()
	if st.Count != 5 || st.Sum != 1106 {
		t.Fatalf("stat count/sum = %d/%d, want 5/1106", st.Count, st.Sum)
	}
	if st.Min != 1 || st.Max != 1000 {
		t.Fatalf("stat min/max = %d/%d, want 1/1000", st.Min, st.Max)
	}
	if st.P50 < 1 || st.P50 > 8 {
		t.Fatalf("p50 = %d, want within a factor of two of the median bucket", st.P50)
	}
	if st.P99 < 512 || st.P99 > 1000 {
		t.Fatalf("p99 = %d, want near the max", st.P99)
	}
	if m := st.Mean(); math.Abs(m-1106.0/5) > 1e-9 {
		t.Fatalf("mean = %g", m)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	st := h.Stat()
	if st.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", st.Count, goroutines*per)
	}
	if st.Min != 0 || st.Max != goroutines*per-1 {
		t.Fatalf("min/max = %d/%d", st.Min, st.Max)
	}
}

func TestRegistrySnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("checkpoints_written").Add(10)
	if r.Counter("checkpoints_written") != r.Counter("checkpoints_written") {
		t.Fatal("counter handle not stable")
	}
	r.Gauge("cal.best_loss").Set(0.5)
	r.Histogram("cal.eval_ns").ObserveDuration(2 * time.Millisecond)
	s := r.Snapshot()
	if s.Counters["checkpoints_written"] != 10 {
		t.Fatalf("snapshot counter = %d", s.Counters["checkpoints_written"])
	}
	if s.Gauges["cal.best_loss"] != 0.5 {
		t.Fatalf("snapshot gauge = %g", s.Gauges["cal.best_loss"])
	}
	if s.Histograms["cal.eval_ns"].Count != 1 {
		t.Fatalf("snapshot hist count = %d", s.Histograms["cal.eval_ns"].Count)
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"checkpoints_written", "cal.best_loss", "cal.eval_ns", "count=1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, text)
		}
	}
	// Durations render as durations, not raw nanosecond counts.
	if !strings.Contains(text, "ms") {
		t.Fatalf("duration-valued histogram not humanized:\n%s", text)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

// fakeClock returns a Clock stepping by dt per call.
func fakeClock(start time.Time, dt time.Duration) Clock {
	t := start
	return func() time.Time {
		now := t
		t = t.Add(dt)
		return now
	}
}

func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(fakeClock(time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC), time.Second))
	tr.EmitManifest(Manifest{Algorithm: "BO-GP", Space: []string{"x", "y"}, Seed: 7, Version: "test"})
	tr.Emit(EventEvalCompleted, Fields{"loss": 0.25, "elapsed_s": 1.5})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if m := recs[0].Fields; recs[0].Name != ManifestName || m["algorithm"] != "BO-GP" || m["seed"] != 7.0 || len(m["space"].([]any)) != 2 {
		t.Fatalf("manifest = %+v", recs[0])
	}
	if recs[0].Seq != 0 || recs[1].Seq != 1 {
		t.Fatalf("bad sequence numbers: %d %d", recs[0].Seq, recs[1].Seq)
	}
	// Injected clock: manifest at +1s (first tick after the anchor),
	// strictly ordered timestamps.
	if !recs[1].T.After(recs[0].T) {
		t.Fatalf("timestamps not increasing: %v %v", recs[0].T, recs[1].T)
	}
	if recs[1].ElapsedS != 2 {
		t.Fatalf("elapsed = %g, want 2 (two ticks of the fake clock)", recs[1].ElapsedS)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit("x", nil) // must not panic
	tr.EmitManifest(Manifest{})
	tr.SetClock(time.Now)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var l *Logger
	l.Printf("discarded %d", 1)
}

func TestBuildVersionNonEmpty(t *testing.T) {
	if BuildVersion() == "" {
		t.Fatal("BuildVersion returned an empty string")
	}
}

func TestLoggerOutput(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.SetClock(fakeClock(time.Unix(0, 0), 250*time.Millisecond))
	l.Printf("hello %s", "world")
	if got := buf.String(); !strings.Contains(got, "hello world") || !strings.Contains(got, "250ms") {
		t.Fatalf("logger output = %q", got)
	}
}
