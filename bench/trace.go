package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simcal/internal/core"
	"simcal/internal/dist"
)

// Span names, one per layer boundary the benchmark can see from
// outside the program.
const (
	spanWorkload   = "workload"
	spanRepetition = "repetition"
	spanCal        = "calibration"
	spanFit        = "opt.fit"
	spanAcquire    = "opt.acquire"
	spanEval       = "core.eval"
	spanRemote     = "dist.remote_eval"
	spanSim        = "sim.run"
	spanJob        = "service.job"
	spanSubmit     = "service.submit"
	spanQueued     = "service.queued"
	spanRunning    = "service.running"
	spanResult     = "service.result"
)

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	name       string
	start, end int64
	// key identifies the evaluated point (hash of its values in Space
	// order): the spans of one evaluation at different layers share it.
	key uint64
	// eval is the history index of a core.eval span.
	eval int
	// job is the service job a span belongs to, "" elsewhere.
	job string
	// wait is the queue wait core reported for a core.eval span.
	wait int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer is the benchmark's span recorder and its core.Observer. It is
// attached at set-up and records only while on is set, so the untraced
// repetitions of the traced pass run through decorators that do
// nothing but one atomic load. All methods are safe on a nil *tracer:
// the end-to-end pass sets up with nil and every wrap returns its
// argument unchanged.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	wire  wireCounts
	// names is the workload's parameter order, set by the first wrap at
	// set-up; EvalCompleted keys its spans with it.
	names []string

	mu           sync.Mutex
	spans        []span
	calStart     int64
	evals        int
	batches      int
	fitPointsMax int
	predictNS    int64
	asyncIdle    []float64 // ms, proposals that refilled a freed slot
	fantasies    []float64
	retractions  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is nanoseconds since the epoch; 0 on a nil tracer, whose callers
// only feed it back into spans that are never recorded.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// pointKey hashes a point's values in the given parameter order.
// (FNV-1a, written out: it runs once per span on the traced hot path
// and hash/fnv's interface costs an allocation per call.)
func pointKey(names []string, p core.Point) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range names {
		bits := math.Float64bits(p[n])
		for i := 0; i < 64; i += 8 {
			h = (h ^ (bits >> i & 0xff)) * 1099511628211
		}
	}
	return h
}

func spaceNames(space core.Space) []string {
	names := make([]string, len(space))
	for i, s := range space {
		names[i] = s.Name
	}
	return names
}

// tracedSim is the core.Simulator decorator: a span around every Run
// (and RunAsync) of the wrapped simulator.
type tracedSim struct {
	inner core.Simulator
	tr    *tracer
	name  string
	names []string
	job   string
}

// Run implements core.Simulator.
func (s *tracedSim) Run(ctx context.Context, p core.Point) (float64, error) {
	if !s.tr.on.Load() {
		return s.inner.Run(ctx, p)
	}
	start := s.tr.now()
	loss, err := s.inner.Run(ctx, p)
	s.tr.add(span{name: s.name, start: start, end: s.tr.now(), key: pointKey(s.names, p), job: s.job})
	return loss, err
}

// The decorator must keep the optional interfaces of what it wraps:
// core picks its pool width from ConcurrencyHinter and its async path
// from AsyncSimulator, so a decorator that dropped them would make the
// traced run measure a different path than the untraced one.
type tracedHinter struct{ *tracedSim }

func (s tracedHinter) EvalConcurrency() int {
	return s.inner.(core.ConcurrencyHinter).EvalConcurrency()
}

type tracedAsync struct{ *tracedSim }

func (s tracedAsync) RunAsync(ctx context.Context, p core.Point, done func(float64, error)) {
	s.runAsync(ctx, p, done)
}

type tracedHinterAsync struct{ tracedHinter }

func (s tracedHinterAsync) RunAsync(ctx context.Context, p core.Point, done func(float64, error)) {
	s.runAsync(ctx, p, done)
}

func (s *tracedSim) runAsync(ctx context.Context, p core.Point, done func(float64, error)) {
	inner := s.inner.(core.AsyncSimulator)
	if !s.tr.on.Load() {
		inner.RunAsync(ctx, p, done)
		return
	}
	start := s.tr.now()
	key := pointKey(s.names, p)
	inner.RunAsync(ctx, p, func(loss float64, err error) {
		s.tr.add(span{name: s.name, start: start, end: s.tr.now(), key: key, job: s.job})
		done(loss, err)
	})
}

// wrap decorates sim with spans called name, preserving whichever of
// core.ConcurrencyHinter and core.AsyncSimulator sim implements.
func (t *tracer) wrap(sim core.Simulator, name string, space core.Space, job string) core.Simulator {
	if t == nil {
		return sim
	}
	base := &tracedSim{inner: sim, tr: t, name: name, names: spaceNames(space), job: job}
	t.mu.Lock()
	t.names = base.names // one workload, one space: every wrap passes the same
	t.mu.Unlock()
	_, hinter := sim.(core.ConcurrencyHinter)
	_, async := sim.(core.AsyncSimulator)
	switch {
	case hinter && async:
		return tracedHinterAsync{tracedHinter{base}}
	case hinter:
		return tracedHinter{base}
	case async:
		return tracedAsync{base}
	}
	return base
}

// wrapSim records sim.run spans around a simulator where it executes.
func (t *tracer) wrapSim(sim core.Simulator, space core.Space) core.Simulator {
	return t.wrap(sim, spanSim, space, "")
}

// wrapRemote records dist.remote_eval spans around a RemoteEvaluator on
// the coordinator side.
func (t *tracer) wrapRemote(sim core.Simulator, space core.Space, job string) core.Simulator {
	return t.wrap(sim, spanRemote, space, job)
}

// wrapFactory records sim.run spans inside the worker: every simulator
// the factory builds is wrapped.
func (t *tracer) wrapFactory(f dist.Factory, space core.Space) dist.Factory {
	if t == nil {
		return f
	}
	return func(spec []byte) (core.Simulator, error) {
		sim, err := f(spec)
		if err != nil {
			return nil, err
		}
		return t.wrapSim(sim, space), nil
	}
}

// wrapTransport counts frames and bytes under the frame codec.
func (t *tracer) wrapTransport(tr interface {
	dist.Transport
	dist.StreamTransport
}) dist.Transport {
	if t == nil {
		return tr
	}
	return countingTransport{inner: tr, counts: &t.wire}
}

// The tracer is the calibration's core.Observer (and AsyncObserver)
// while a traced repetition runs.

// CalibrationStarted implements core.Observer.
func (t *tracer) CalibrationStarted(core.RunInfo) {
	t.mu.Lock()
	t.calStart = t.now()
	t.mu.Unlock()
}

// BatchProposed implements core.Observer.
func (t *tracer) BatchProposed(int) {
	t.mu.Lock()
	t.batches++
	t.mu.Unlock()
}

// EvalCompleted implements core.Observer. core stamps s.Elapsed when
// the evaluation completes, so the span ends there and starts dur
// earlier.
func (t *tracer) EvalCompleted(s core.Sample, wait, dur time.Duration) {
	t.mu.Lock()
	end := t.calStart + int64(s.Elapsed)
	t.spans = append(t.spans, span{name: spanEval, start: end - int64(dur), end: end, key: pointKey(t.names, s.Point), eval: t.evals, wait: int64(wait)})
	t.evals++
	t.mu.Unlock()
}

// IncumbentImproved implements core.Observer.
func (t *tracer) IncumbentImproved(core.Sample) {}

// SurrogateFitted implements core.Observer.
func (t *tracer) SurrogateFitted(points int, dur time.Duration) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: spanFit, start: end - int64(dur), end: end})
	if points > t.fitPointsMax {
		t.fitPointsMax = points
	}
	t.mu.Unlock()
}

// AcquisitionSolved implements core.Observer.
func (t *tracer) AcquisitionSolved(_ int, predict, dur time.Duration) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: spanAcquire, start: end - int64(dur), end: end})
	t.predictNS += int64(predict)
	t.mu.Unlock()
}

// CalibrationFinished implements core.Observer.
func (t *tracer) CalibrationFinished(*core.Result) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: spanCal, start: t.calStart, end: t.now()})
	t.mu.Unlock()
}

// AsyncProposed implements core.AsyncObserver.
func (t *tracer) AsyncProposed(_, fantasies int, idle time.Duration) {
	t.mu.Lock()
	t.fantasies = append(t.fantasies, float64(fantasies))
	if idle > 0 {
		t.asyncIdle = append(t.asyncIdle, float64(idle)/1e6)
	}
	t.mu.Unlock()
}

// AsyncCompletionConsumed implements core.AsyncObserver.
func (t *tracer) AsyncCompletionConsumed(_, _ int, _ float64, retracted bool) {
	if retracted {
		t.mu.Lock()
		t.retractions++
		t.mu.Unlock()
	}
}

// byName returns the recorded spans with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

func sumDur(spans []span) float64 {
	var ns int64
	for _, s := range spans {
		ns += s.dur()
	}
	return float64(ns) / 1e9
}

func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// attribution is where the traced repetition's wall went. Evaluations
// run W at a time, so the accounting is in slot-seconds (W slots × the
// wall) divided back by W: a slot is busy inside an evaluation — split
// into simulator, dist and core by span nesting — or idle, and idle
// slot time is charged to the surrogate fit or acquisition the driver
// was in at that moment. What is left is core.unattributed_s: batch
// barriers, dispatch gaps, bookkeeping, and on svc-wf-jobs everything
// the service and the cache do. With no overlap between fits and
// evaluations this is the ROADMAP's wall − Σeval/W − fit − acquire.
type attribution struct {
	wallS, fitS, acquireS, coreEvalS, distS, simS, unattributedS float64
}

func (t *tracer) attribute(wallS float64, workers int) attribution {
	evals, remotes, sims := t.byName(spanEval), t.byName(spanRemote), t.byName(spanSim)
	w := float64(workers)
	// Evaluations in flight occupy slots; on svc-wf-jobs core's own
	// eval spans are out of reach and the remote spans stand in.
	busy := evals
	if len(busy) == 0 {
		busy = remotes
	}
	idleDuring := func(name string) float64 {
		total := 0.0
		for _, s := range t.byName(name) {
			var overlap int64
			for _, e := range busy {
				if lo, hi := max(s.start, e.start), min(s.end, e.end); hi > lo {
					overlap += hi - lo
				}
			}
			if idle := w*float64(s.dur()) - float64(overlap); idle > 0 {
				total += idle / 1e9
			}
		}
		return total / w
	}
	a := attribution{wallS: wallS, fitS: idleDuring(spanFit), acquireS: idleDuring(spanAcquire), simS: sumDur(sims) / w}
	inner := sumDur(sims)
	if len(remotes) > 0 {
		a.distS = (sumDur(remotes) - sumDur(sims)) / w
		inner = sumDur(remotes)
	}
	if len(evals) > 0 {
		a.coreEvalS = (sumDur(evals) - inner) / w
	}
	a.unattributedS = wallS - a.fitS - a.acquireS - a.coreEvalS - a.distS - a.simS
	return a
}

// spanDoc is one span of spans.json.
type spanDoc struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Eval    *int   `json:"eval,omitempty"`
	Job     string `json:"job,omitempty"`
}

// evalSkew is how far an inner span may stick out of its core.eval
// parent: core.eval spans are rebuilt from core's own stamps (started +
// Sample.Elapsed − dur), which are taken microseconds apart from the
// tracer's.
const evalSkew = int64(time.Millisecond)

// spanTree links the recorded spans into one tree: workload →
// repetition → calibration → {opt.fit, opt.acquire, core.eval →
// dist.remote_eval → sim.run}, and service.job → {submit, queued,
// running → dist.remote_eval → sim.run, result}. Layers are linked by
// the evaluated point: an outer span claims the first unclaimed inner
// span with its key that lies inside it, and hands its history index
// down.
func (t *tracer) spanTree() []spanDoc {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	docs := make([]spanDoc, len(spans))
	byKey := map[string]map[uint64][]int{spanRemote: {}, spanSim: {}}
	first := map[string]int{}       // span name → id of its first span
	jobSpan := map[string]int{}     // job → id of its service.job span
	runningSpan := map[string]int{} // job → id of its service.running span
	for i, s := range spans {
		docs[i] = spanDoc{ID: i + 1, Name: s.name, StartNS: s.start, EndNS: s.end, Job: s.job}
		if m, ok := byKey[s.name]; ok {
			m[s.key] = append(m[s.key], i)
		}
		if _, seen := first[s.name]; !seen {
			first[s.name] = i + 1
		}
		switch s.name {
		case spanJob:
			jobSpan[s.job] = i + 1
		case spanRunning:
			runningSpan[s.job] = i + 1
		}
	}
	claim := func(layer string, parent int, slack int64) int {
		p := spans[parent]
		list := byKey[layer][p.key]
		for n, i := range list {
			if i >= 0 && spans[i].start >= p.start-slack && spans[i].end <= p.end+slack {
				list[n] = -1
				return i
			}
		}
		return -1
	}
	simOf := map[int]int{} // remote span index → its sim.run span index
	for i, s := range spans {
		switch s.name {
		case spanRepetition:
			docs[i].Parent = first[spanWorkload]
		case spanCal, spanJob:
			docs[i].Parent = first[spanRepetition]
		case spanFit, spanAcquire, spanEval:
			docs[i].Parent = first[spanCal]
		case spanSubmit, spanQueued, spanRunning, spanResult:
			docs[i].Parent = jobSpan[s.job]
		case spanRemote:
			docs[i].Parent = runningSpan[s.job] // 0 unless a service job
			if sim := claim(spanSim, i, 0); sim >= 0 {
				docs[sim].Parent = i + 1
				simOf[i] = sim
			}
		}
	}
	for i, s := range spans {
		if s.name != spanEval {
			continue
		}
		e := s.eval
		docs[i].Eval = &e
		inner := claim(spanRemote, i, evalSkew)
		if inner < 0 {
			inner = claim(spanSim, i, evalSkew)
		}
		if inner < 0 {
			continue
		}
		docs[inner].Parent, docs[inner].Eval = i+1, &e
		if sim, ok := simOf[inner]; ok {
			docs[sim].Eval = &e
		}
	}
	return docs
}

// writeSpans writes the span tree of the traced repetition.
func (t *tracer) writeSpans(path, workload string) error {
	b, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spanTree()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
