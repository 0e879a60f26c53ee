package obs

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHistogramEmptyStat(t *testing.T) {
	var h Histogram
	st := h.Stat()
	if st.Count != 0 || st.Sum != 0 || st.Min != 0 || st.Max != 0 ||
		st.P50 != 0 || st.P90 != 0 || st.P99 != 0 {
		t.Errorf("empty histogram stat = %+v, want all zero", st)
	}
	if st.Mean() != 0 {
		t.Errorf("empty histogram mean = %v, want 0", st.Mean())
	}
	if b := h.Buckets(); b != [histBuckets]int64{} {
		t.Errorf("empty histogram buckets = %v, want all zero", b)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(1000)
	st := h.Stat()
	if st.Count != 1 || st.Sum != 1000 || st.Min != 1000 || st.Max != 1000 {
		t.Fatalf("single-sample stat = %+v", st)
	}
	// Every quantile of a single observation is that observation
	// (bucket upper bounds are clamped to [min, max]).
	if st.P50 != 1000 || st.P90 != 1000 || st.P99 != 1000 {
		t.Errorf("single-sample quantiles = %d/%d/%d, want 1000 each", st.P50, st.P90, st.P99)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxInt64)
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	st := h.Stat()
	if st.Count != 3 {
		t.Fatalf("count = %d, want 3", st.Count)
	}
	if st.Min != 0 {
		t.Errorf("min = %d, want 0 (negative observation clamps)", st.Min)
	}
	if st.Max != math.MaxInt64 {
		t.Errorf("max = %d, want MaxInt64", st.Max)
	}
	if st.P99 != math.MaxInt64 {
		t.Errorf("p99 = %d, want MaxInt64 (top bucket reports max)", st.P99)
	}
}

// TestSnapshotDeterminism builds two identical registries and demands
// byte-identical text and Prometheus renderings — the property CI's
// exposition checks and trace diffs rely on.
func TestSnapshotDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b.count").Add(3)
		r.Counter("a.count").Add(1)
		r.Gauge(LabeledName("g.val", "worker", "w2")).Set(2.5)
		r.Gauge(LabeledName("g.val", "worker", "w1")).Set(1.5)
		r.Gauge("g.inf").Set(math.Inf(1))
		h := r.Histogram("h.ns")
		for _, v := range []int64{5, 50, 500} {
			h.Observe(v)
		}
		return r
	}
	var text1, text2, prom1, prom2 bytes.Buffer
	if err := build().Snapshot().WriteText(&text1); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().WriteText(&text2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text1.Bytes(), text2.Bytes()) {
		t.Errorf("WriteText not deterministic:\n%s\nvs\n%s", text1.String(), text2.String())
	}
	if err := build().Snapshot().WritePrometheus(&prom1); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().WritePrometheus(&prom2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prom1.Bytes(), prom2.Bytes()) {
		t.Errorf("WritePrometheus not deterministic:\n%s\nvs\n%s", prom1.String(), prom2.String())
	}
}

// TestHistogramFirstObservationsRace: observers that start together on
// a fresh histogram — the first observation racing the others — leave
// exactly the smallest and the largest value as its min and max. Each
// round's observers spin until all have arrived, so they observe at
// once without waiting on a scheduler wake-up.
func TestHistogramFirstObservationsRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	observers := int64(runtime.GOMAXPROCS(0))
	for round := 0; round < 20000; round++ {
		var h Histogram
		var arrived atomic.Int64
		var done sync.WaitGroup
		for g := int64(0); g < observers; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				for arrived.Add(1); arrived.Load() < observers; {
				}
				h.Observe(100 + g) // distinct values: 100 is the min
			}()
		}
		done.Wait()
		if st := h.Stat(); st.Min != 100 || st.Max != 100+observers-1 || st.Count != observers {
			t.Fatalf("round %d: %d observations of 100..%d read count %d, min %d, max %d",
				round, observers, 100+observers-1, st.Count, st.Min, st.Max)
		}
	}
}
