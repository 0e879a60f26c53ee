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

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark (e.g. maximum event-heap depth). A gauge that was
// never written accepts any first value.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.w.Load()
		if old != 0 && v <= math.Float64frombits(old-1) {
			return
		}
		if g.w.CompareAndSwap(old, gaugeWord(v)) {
			return
		}
	}
}

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
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values are clamped to 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count.Add(1) == 1 {
		h.min.Store(v)
		h.max.Store(v)
	} else {
		for {
			old := h.min.Load()
			if v >= old || h.min.CompareAndSwap(old, v) {
				break
			}
		}
		for {
			old := h.max.Load()
			if v <= old || h.max.CompareAndSwap(old, v) {
				break
			}
		}
	}
	h.sum.Add(v)
	i := 0
	for x := v; x > 0; x >>= 1 {
		i++
	}
	h.buckets[i%histBuckets].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistDump is the full transferable state of a histogram: the
// cumulative counters plus the non-empty power-of-two buckets. It is
// what crosses process boundaries in the distributed telemetry plane —
// a worker ships bucket-count deltas, the coordinator absorbs them into
// a fleet histogram — and it survives JSON (integer bucket indices
// encode as string keys).
type HistDump struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets maps bucket index (bitlen of the observation) to count;
	// empty buckets are omitted.
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// Dump captures the histogram's cumulative state. Concurrent Observe
// calls may be partially reflected, exactly as with Stat.
func (h *Histogram) Dump() HistDump {
	d := HistDump{Count: h.count.Load(), Sum: h.sum.Load()}
	if d.Count == 0 {
		return d
	}
	d.Min = h.min.Load()
	d.Max = h.max.Load()
	var counts [histBuckets]int64
	occupied := 0
	for i := range h.buckets {
		if counts[i] = h.buckets[i].Load(); counts[i] != 0 {
			occupied++
		}
	}
	if occupied > 0 {
		// Sized once: a map grown past eight entries one at a time
		// allocates again on the way.
		d.Buckets = make(map[int]int64, occupied)
		for i, n := range counts {
			if n != 0 {
				d.Buckets[i] = n
			}
		}
	}
	return d
}

// DeltaSince reads what moved in the buckets without building a dump:
// it clears delta, sets delta[i] to the growth of every bucket i whose
// count differs from last[i], and brings last up to date. It returns the
// cumulative Count, Sum, Min and Max (as Dump has them) with Buckets set
// to delta. A caller that keeps last and the previous header from call to
// call gets exactly Dump().Sub(previous dump) — Count and Sum by
// difference, the same bucket deltas — and allocates nothing once delta
// has grown. Concurrent Observe calls may be partially reflected: what a
// call misses, the next one reports.
func (h *Histogram) DeltaSince(last *[histBuckets]int64, delta map[int]int64) HistDump {
	d := HistDump{Count: h.count.Load(), Sum: h.sum.Load(), Buckets: delta}
	if d.Count != 0 {
		d.Min = h.min.Load()
		d.Max = h.max.Load()
	}
	clear(delta)
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != last[i] {
			delta[i] = n - last[i]
			last[i] = n
		}
	}
	return d
}

// Sub returns the delta d − prev: the observations recorded after prev
// was captured. Min and Max stay cumulative (they cannot be
// differenced), so a delta carries the current running extremes.
func (d HistDump) Sub(prev HistDump) HistDump {
	out := HistDump{
		Count: d.Count - prev.Count,
		Sum:   d.Sum - prev.Sum,
		Min:   d.Min,
		Max:   d.Max,
	}
	for i, n := range d.Buckets {
		if diff := n - prev.Buckets[i]; diff != 0 {
			if out.Buckets == nil {
				out.Buckets = make(map[int]int64)
			}
			out.Buckets[i] = diff
		}
	}
	return out
}

// AbsorbDelta merges a dump delta into the histogram. Negative counts
// and out-of-range bucket indices are dropped (a telemetry peer is not
// trusted to keep the merged state consistent), and Min/Max fold in via
// the same monotone updates Observe uses.
func (h *Histogram) AbsorbDelta(d HistDump) {
	if d.Count <= 0 {
		return
	}
	if h.count.Add(d.Count) == d.Count {
		h.min.Store(d.Min)
		h.max.Store(d.Max)
	} else {
		for {
			old := h.min.Load()
			if d.Min >= old || h.min.CompareAndSwap(old, d.Min) {
				break
			}
		}
		for {
			old := h.max.Load()
			if d.Max <= old || h.max.CompareAndSwap(old, d.Max) {
				break
			}
		}
	}
	if d.Sum > 0 {
		h.sum.Add(d.Sum)
	}
	for i, n := range d.Buckets {
		if i >= 0 && i < histBuckets && n > 0 {
			h.buckets[i].Add(n)
		}
	}
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
	st.Min = h.min.Load()
	st.Max = h.max.Load()
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
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
	all       []registered // every metric in registration order; append-only
	published bool
}

// registered is one metric of a Registry: its name and its handle.
type registered struct {
	name   string
	metric any
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
		r.all = append(r.all, registered{name, c})
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
		r.all = append(r.all, registered{name, g})
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
		r.all = append(r.all, registered{name, h})
	}
	return h
}

// Each calls fn with the name and handle — a *Counter, *Gauge or
// *Histogram — of every metric registered when it is called, in
// registration order. fn runs outside the registry's lock. Each is how
// a reader that keeps what it last saw per handle (a worker's telemetry
// session) finds what moved without building a Snapshot.
func (r *Registry) Each(fn func(name string, metric any)) {
	r.mu.Lock()
	all := r.all // append-only: the prefix it covers never changes
	r.mu.Unlock()
	for _, m := range all {
		fn(m.name, m.metric)
	}
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
