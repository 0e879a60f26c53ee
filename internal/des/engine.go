// Package des implements a minimal discrete-event simulation kernel: a
// virtual clock and a time-ordered event queue with cancelable timers.
// It is the foundation both case-study simulators are built on, playing
// the role the SimGrid/WRENCH core plays in the paper.
package des

import (
	"container/heap"
	"fmt"
	"math"

	"simcal/internal/obs"
	"simcal/internal/slab"
)

// Engine-level metrics, flushed into the default obs registry once per
// Run call (a handful of atomic operations per simulation, nothing per
// event).
var (
	metricRuns    = obs.Default().Counter("des.engine_runs")
	metricEvents  = obs.Default().Counter("des.events_fired")
	metricRemoved = obs.Default().Counter("des.events_removed")
	metricHeapMax = obs.Default().Gauge("des.heap_depth_max")
)

// cancelBurstLimit bounds how many consecutive cancellations (with no
// intervening schedule or fire) are removed from the heap eagerly, one
// O(log n) heap.Remove each. Past the limit the engine assumes a bulk
// cancel storm and switches to O(1) tombstoning with a single O(n)
// drain once half the heap is dead.
const cancelBurstLimit = 32

// Event is a scheduled callback. Events returned by At/After can be
// canceled before they fire; they belong to the engine and are recycled
// by Reset, so a handle must not be used after the engine is reset.
// Events made with NewEvent belong to the caller and survive Reset.
type Event struct {
	time     float64
	seq      uint64
	fn       func()
	eng      *Engine
	index    int // heap index, -1 when not queued
	canceled bool
}

// Time returns the simulated time at which the event is scheduled.
func (e *Event) Time() float64 { return e.time }

// Cancel prevents the event from firing and releases its heap slot —
// eagerly for isolated cancels, lazily (tombstone + periodic drain)
// under cancel storms, so churn-heavy simulations no longer accumulate
// O(changes) dead entries. Canceling an event that already fired or was
// already canceled is a no-op.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.index >= 0 {
		e.eng.removeCanceled(e)
	}
}

// eventHeap orders events by (time, seq) so simultaneous events fire in
// scheduling order, keeping simulations deterministic.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now         float64
	seq         uint64
	fired       int
	maxPending  int
	flushed     int // fired count already flushed to metrics
	removed     int // canceled events taken off the heap without firing
	flushedRm   int // removed count already flushed to metrics
	tombstones  int // canceled events still occupying heap slots
	cancelBurst int // consecutive cancels since the last schedule/fire
	events      eventHeap
	runEnd      []func()
	arena       slab.Arena[Event] // backs the events At hands out
}

// NewEngine returns an engine with the clock at time 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events fired so far.
func (e *Engine) Fired() int { return e.fired }

// Pending returns the number of queued live (non-fired, non-canceled)
// events. Canceled events awaiting a lazy drain are excluded.
func (e *Engine) Pending() int { return len(e.events) - e.tombstones }

// Removed returns the number of canceled events taken off the heap
// without firing, over the engine's lifetime.
func (e *Engine) Removed() int { return e.removed }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: that is always a simulator bug.
func (e *Engine) At(t float64, fn func()) *Event {
	e.checkTime(t)
	ev := e.arena.Get()
	*ev = Event{fn: fn, eng: e}
	e.push(ev, t)
	return ev
}

// NewEvent returns an unscheduled event bound to fn. Unlike the events
// At returns it belongs to the caller: it can be armed any number of
// times with Schedule, costs no allocation per firing, and stays valid
// across Reset. The flow kernel's completion event is one.
func (e *Engine) NewEvent(fn func()) *Event {
	return &Event{fn: fn, eng: e, index: -1}
}

// Schedule arms ev to fire at absolute simulated time t, replacing its
// pending firing if it has one. The event takes a fresh sequence number,
// so the firing order — and the removal count — are exactly those of
// ev.Cancel() followed by At(t, fn).
func (e *Engine) Schedule(ev *Event, t float64) {
	e.checkTime(t)
	if ev.index < 0 {
		ev.canceled = false
		e.push(ev, t)
		return
	}
	if ev.canceled { // tombstoned by a cancel storm, still holding its slot
		ev.canceled = false
		e.tombstones--
	}
	e.removed++
	e.cancelBurst = 0
	ev.time = t
	ev.seq = e.seq
	e.seq++
	heap.Fix(&e.events, ev.index)
}

func (e *Engine) checkTime(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %g before now %g", t, e.now))
	}
	if math.IsNaN(t) {
		panic("des: scheduling event at NaN time")
	}
}

// push stamps an unqueued event with t and the next sequence number and
// queues it.
func (e *Engine) push(ev *Event, t float64) {
	e.cancelBurst = 0
	ev.time = t
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.events, ev)
	if len(e.events) > e.maxPending {
		e.maxPending = len(e.events)
	}
}

// Reset returns the engine to the state NewEngine left it in — clock at
// 0, empty queue, sequence numbering restarted — so the next simulation
// numbers and orders its events exactly as it would on a fresh engine.
// Queued events are dropped unfired, the events At handed out are
// recycled (their handles are invalid from here on), and counters not
// yet flushed by Run are discarded. The OnRunEnd hooks are kept: they
// belong to the kernel layers built on the engine, which are reset with
// it rather than re-created.
func (e *Engine) Reset() {
	for i, ev := range e.events {
		ev.index = -1
		e.events[i] = nil
	}
	e.arena.Reset()
	*e = Engine{events: e.events[:0], runEnd: e.runEnd, arena: e.arena}
}

// MaxPending returns the deepest the event heap has been over the
// engine's lifetime.
func (e *Engine) MaxPending() int { return e.maxPending }

// OnRunEnd registers a hook invoked when Run finishes (normally or at
// the event bound). The flow kernel uses it to flush its solver
// statistics once per simulation.
func (e *Engine) OnRunEnd(fn func()) {
	e.runEnd = append(e.runEnd, fn)
}

// flushStats publishes the engine's counters to the obs registry and
// invokes the run-end hooks. Multiple Run calls flush incrementally.
func (e *Engine) flushStats() {
	metricRuns.Inc()
	metricEvents.Add(int64(e.fired - e.flushed))
	e.flushed = e.fired
	metricRemoved.Add(int64(e.removed - e.flushedRm))
	e.flushedRm = e.removed
	metricHeapMax.SetMax(float64(e.maxPending))
	for _, fn := range e.runEnd {
		fn()
	}
}

// removeCanceled releases the heap slot of a just-canceled queued event.
// Isolated cancels (the common cancel-and-recreate of the flow kernel's
// completion event) are removed eagerly; a burst of more than
// cancelBurstLimit consecutive cancels switches to tombstoning with an
// O(n) drain once tombstones reach half the heap, so bulk cancels cost
// amortized O(1) each instead of O(log n).
func (e *Engine) removeCanceled(ev *Event) {
	e.cancelBurst++
	if e.cancelBurst <= cancelBurstLimit {
		heap.Remove(&e.events, ev.index)
		e.removed++
		return
	}
	e.tombstones++
	if e.tombstones*2 >= len(e.events) {
		e.drain()
	}
}

// drain rebuilds the heap without its tombstones, preserving the slice
// order of live events (the heap invariant is re-established over the
// same multiset, and (time, seq) is a total order, so the firing
// sequence is unchanged).
func (e *Engine) drain() {
	live := e.events[:0]
	for _, ev := range e.events {
		if ev.canceled {
			ev.index = -1
			e.removed++
			continue
		}
		live = append(live, ev)
	}
	for i := len(live); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = live
	for i, ev := range e.events {
		ev.index = i
	}
	heap.Init(&e.events)
	e.tombstones = 0
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Step fires the next event, advancing the clock to its timestamp. It
// returns false when the queue is empty. Tombstoned (canceled) events
// are skipped and discarded.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Event)
		if ev.canceled {
			e.tombstones--
			e.removed++
			continue
		}
		e.cancelBurst = 0
		e.now = ev.time
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty and returns the final clock
// value. maxEvents bounds the number of fired events to guard against
// runaway simulations; pass 0 for no bound. It returns an error if the
// bound is reached.
func (e *Engine) Run(maxEvents int) (float64, error) {
	defer e.flushStats()
	start := e.fired
	for e.Step() {
		if maxEvents > 0 && e.fired-start >= maxEvents {
			return e.now, fmt.Errorf("des: event bound %d reached at t=%g", maxEvents, e.now)
		}
	}
	return e.now, nil
}

// RunUntil fires events with timestamps ≤ t, then advances the clock to
// exactly t. Events scheduled after t remain queued.
func (e *Engine) RunUntil(t float64) {
	for {
		ev := e.peek()
		if ev == nil || ev.time > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// peek returns the next non-canceled event without firing it, draining
// canceled entries it encounters.
func (e *Engine) peek() *Event {
	for len(e.events) > 0 {
		ev := e.events[0]
		if !ev.canceled {
			return ev
		}
		heap.Pop(&e.events)
		e.tombstones--
		e.removed++
	}
	return nil
}
