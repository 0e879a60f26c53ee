package obs

import (
	"bytes"
	"math"
	"reflect"
	"sync"
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
	d := h.Dump()
	if d.Count != 0 || len(d.Buckets) != 0 {
		t.Errorf("empty histogram dump = %+v, want empty", d)
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

func TestHistDumpSubAndAbsorbRoundTrip(t *testing.T) {
	var src Histogram
	for _, v := range []int64{1, 2, 3, 100, 5000, 1 << 40} {
		src.Observe(v)
	}
	checkpoint := src.Dump()
	for _, v := range []int64{7, 8, 9, 1 << 50} {
		src.Observe(v)
	}
	delta := src.Dump().Sub(checkpoint)
	if delta.Count != 4 {
		t.Fatalf("delta count = %d, want 4", delta.Count)
	}

	// Absorbing the checkpoint and then the delta reproduces the
	// source's distribution exactly.
	var dst Histogram
	dst.AbsorbDelta(checkpoint)
	dst.AbsorbDelta(delta)
	if got, want := dst.Stat(), src.Stat(); got != want {
		t.Errorf("absorbed stat = %+v, want %+v", got, want)
	}
}

func TestAbsorbDeltaRejectsHostileInput(t *testing.T) {
	var h Histogram
	h.Observe(100)
	before := h.Stat()
	// Negative counts and out-of-range bucket indices come from an
	// untrusted peer; they must not corrupt the histogram.
	h.AbsorbDelta(HistDump{Count: -10, Sum: -999, Buckets: map[int]int64{-1: 5, 9999: 5, 3: -2}})
	if got := h.Stat(); got != before {
		t.Errorf("hostile delta changed stat: %+v -> %+v", before, got)
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

// TestHistogramDeltaSinceMatchesDumpSub: read after read, DeltaSince
// reports what Dump().Sub(previous dump) reports — the same Count and
// Sum by difference, the same Min and Max, the same bucket deltas — and
// allocates nothing once its delta map has grown.
func TestHistogramDeltaSinceMatchesDumpSub(t *testing.T) {
	var h Histogram
	var last [histBuckets]int64
	delta := make(map[int]int64)
	var prev, prevHdr HistDump
	for round, batch := range [][]int64{{}, {1, 2, 3, 100}, {}, {5000, 1 << 40, 0}, {7, 7, 7}} {
		for _, v := range batch {
			h.Observe(v)
		}
		want := h.Dump().Sub(prev)
		hdr := h.DeltaSince(&last, delta)
		got := HistDump{Count: hdr.Count - prevHdr.Count, Sum: hdr.Sum - prevHdr.Sum, Min: hdr.Min, Max: hdr.Max}
		if len(hdr.Buckets) > 0 {
			got.Buckets = hdr.Buckets
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: DeltaSince reports %+v, Dump().Sub %+v", round, got, want)
		}
		prev, prevHdr = h.Dump(), hdr
	}
	if allocs := testing.AllocsPerRun(100, func() {
		h.Observe(1 << 20)
		h.DeltaSince(&last, delta)
	}); allocs != 0 {
		t.Errorf("a warm DeltaSince allocates %.0f objects, want 0", allocs)
	}
}

// TestHistogramDeltaSinceUnderConcurrentObserve: while four goroutines
// observe, a reader takes deltas; once they are done, one more read
// brings the deltas it took to sum to Dump()'s buckets, whatever each
// read caught half-way through an Observe.
func TestHistogramDeltaSinceUnderConcurrentObserve(t *testing.T) {
	var h Histogram
	var last [histBuckets]int64
	delta := make(map[int]int64)
	total := make(map[int]int64)
	take := func() {
		for i, n := range h.DeltaSince(&last, delta).Buckets {
			total[i] += n
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < 2000; i++ {
				h.Observe(i << uint(g*8))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		take()
	}
	take()
	d := h.Dump()
	if !reflect.DeepEqual(total, d.Buckets) {
		t.Errorf("the deltas sum to %v, Dump() holds %v", total, d.Buckets)
	}
	if hdr := h.DeltaSince(&last, delta); hdr.Count != 8000 || hdr.Count != d.Count || hdr.Sum != d.Sum || len(hdr.Buckets) != 0 {
		t.Errorf("after the observers: header %+v, dump count %d sum %d, want 8000 observations and no bucket moved", hdr, d.Count, d.Sum)
	}
}
