package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; updates are single atomic adds.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters never go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64-valued metric that can move in either direction.
// The zero value is ready to use and reads as 0.
type Gauge struct {
	// w is 0 until the first write and Float64bits(v)+1 after it, so a
	// written 0 is told apart from "never written". The one bit pattern
	// the +1 would wrap, all ones, is a NaN, and stored NaNs are
	// canonical.
	w atomic.Uint64
}

func gaugeWord(v float64) uint64 {
	if v != v {
		v = math.NaN()
	}
	return math.Float64bits(v) + 1
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.w.Store(gaugeWord(v)) }

// SetMin lowers the gauge to v if v is below the current value (or the
// gauge was never written) — a low-water mark (e.g. best loss so far).
func (g *Gauge) SetMin(v float64) {
	for {
		old := g.w.Load()
		if old != 0 && v >= math.Float64frombits(old-1) {
			return
		}
		if g.w.CompareAndSwap(old, gaugeWord(v)) {
			return
		}
	}
}

// Value returns the current gauge value, 0 before the first write.
func (g *Gauge) Value() float64 {
	w := g.w.Load()
	if w == 0 {
		return 0
	}
	return math.Float64frombits(w - 1)
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bitlen(v) == i, i.e. v in [2^(i-1), 2^i).
const histBuckets = 64

// Histogram records an int64-valued distribution (typically
// nanoseconds) in power-of-two buckets. All updates are atomic; the
// zero value is ready to use.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// minGap is MaxInt64 − min, so that min, like max, only ever rises
	// from the zero value: an observation is folded in by the same
	// monotone update whether or not it is the first. Both are valid
	// once count > 0.
	minGap  atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// raise lifts a to v if v is larger.
func raise(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// Observe records one value. Negative values are clamped to 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	raise(&h.minGap, math.MaxInt64-v)
	raise(&h.max, v)
	h.sum.Add(v)
	i := 0
	for x := v; x > 0; x >>= 1 {
		i++
	}
	h.buckets[i%histBuckets].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Buckets returns the count of every power-of-two bucket: bucket i
// counts the observations v with bitlen(v) == i.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var counts [histBuckets]int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return counts
}

// HistStat is a point-in-time summary of a histogram. Quantiles are
// upper bounds of the power-of-two bucket containing the quantile, so
// they are accurate to within a factor of two.
type HistStat struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
}

// Mean returns the arithmetic mean of the observations, or 0 when empty.
func (s HistStat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Stat summarizes the histogram. Concurrent Observe calls may be
// partially reflected; the summary is internally consistent enough for
// reporting.
func (h *Histogram) Stat() HistStat {
	st := HistStat{Count: h.count.Load(), Sum: h.sum.Load()}
	if st.Count == 0 {
		return st
	}
	st.Min = math.MaxInt64 - h.minGap.Load()
	st.Max = h.max.Load()
	counts := h.Buckets()
	var total int64
	for _, n := range counts {
		total += n
	}
	quantile := func(q float64) int64 {
		target := int64(math.Ceil(q * float64(total)))
		if target < 1 {
			target = 1
		}
		var cum int64
		for i := range counts {
			cum += counts[i]
			if cum >= target {
				if i == 0 {
					return clampI64(0, st.Min, st.Max)
				}
				if i >= 63 {
					return st.Max
				}
				return clampI64(int64(1)<<uint(i), st.Min, st.Max)
			}
		}
		return st.Max
	}
	st.P50 = quantile(0.50)
	st.P90 = quantile(0.90)
	st.P99 = quantile(0.99)
	return st
}

// Registry is a named collection of metrics. Handle lookup takes a
// mutex; updates through the returned handles are lock-free, so hot
// paths should resolve handles once (package-level vars) and reuse them.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	published bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the framework's built-in
// instrumentation (DES engine, flow kernel, calibration bridge) writes
// to.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry,
// suitable for JSON encoding.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	Histograms map[string]HistStat `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistStat, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Stat()
	}
	return s
}

// WriteText renders the snapshot as aligned name/value lines, sorted by
// metric name. Values of metrics whose name ends in "_ns" are formatted
// as durations.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var line string
		switch {
		case hasCounter(s, n):
			line = fmt.Sprintf("%-36s %s", n, formatVal(n, s.Counters[n]))
		case hasGauge(s, n):
			line = fmt.Sprintf("%-36s %g", n, s.Gauges[n])
		default:
			h := s.Histograms[n]
			line = fmt.Sprintf("%-36s count=%d mean=%s p50=%s p90=%s max=%s",
				n, h.Count, formatVal(n, int64(h.Mean())), formatVal(n, h.P50),
				formatVal(n, h.P90), formatVal(n, h.Max))
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

func hasCounter(s Snapshot, n string) bool { _, ok := s.Counters[n]; return ok }
func hasGauge(s Snapshot, n string) bool   { _, ok := s.Gauges[n]; return ok }

// clampI64 bounds v to [lo, hi].
func clampI64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// formatVal renders nanosecond-named metrics as human durations.
func formatVal(name string, v int64) string {
	if len(name) > 3 && name[len(name)-3:] == "_ns" {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%d", v)
}

// PublishExpvar exposes the registry under the given expvar name (for
// the -pprof debug server's /debug/vars endpoint). Publishing the same
// registry twice is a no-op; distinct registries need distinct names.
func (r *Registry) PublishExpvar(name string) {
	r.mu.Lock()
	already := r.published
	r.published = true
	r.mu.Unlock()
	if already || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
