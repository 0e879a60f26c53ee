// Package des implements a minimal discrete-event simulation kernel: a
// virtual clock and a time-ordered event queue with cancelable timers.
// It is the foundation both case-study simulators are built on, playing
// the role the SimGrid/WRENCH core plays in the paper.
package des

import (
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
)

// cancelBurstLimit bounds how many consecutive cancellations (with no
// intervening schedule or fire) are removed from the heap eagerly, one
// O(log n) eventHeap.remove each. Past the limit the engine assumes a bulk
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
	resolve  func() // non-nil while the event is a placeholder (see Defer)
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
	if e.resolve != nil {
		// A placeholder is always queued, and its Defer already counted
		// the removal of the firing it superseded: dropping it counts none.
		e.resolve = nil
		e.eng.events.remove(e.index)
		return
	}
	if e.index >= 0 {
		e.eng.removeCanceled(e)
	}
}

// eventHeap is a binary min-heap of events ordered by (time, seq), so
// simultaneous events fire in scheduling order, keeping simulations
// deterministic. Its methods are container/heap's algorithms — same
// comparisons, same final layout — specialized to *Event: the ordering is
// compared inline instead of through an interface, and a sift moves the
// sifted event once instead of swapping at every level. Each queued
// event's index field tracks its slot.
type eventHeap []*Event

// before reports whether a fires before b. seq is unique, so this is a
// total order on queued events: the firing sequence is a function of the
// events alone, never of the heap's layout.
func (a *Event) before(b *Event) bool {
	return a.time < b.time || a.time == b.time && a.seq < b.seq
}

// set places ev at slot i.
func (h eventHeap) set(i int, ev *Event) {
	h[i] = ev
	ev.index = i
}

// up sifts the event at slot j toward the root.
func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(h[i]) {
			break
		}
		h.set(j, h[i])
		j = i
	}
	h.set(j, ev)
}

// down sifts the event at slot i0 toward the leaves, within the first n
// slots, and reports whether it moved.
func (h eventHeap) down(i0, n int) bool {
	ev := h[i0]
	i := i0
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && h[j2].before(h[j]) {
			j = j2
		}
		if !h[j].before(ev) {
			break
		}
		h.set(i, h[j])
		i = j
	}
	h.set(i, ev)
	return i > i0
}

// init establishes the heap invariant over the whole slice.
func (h eventHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// fix restores the invariant after the event at slot i changed its key.
func (h eventHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// remove takes the event at slot i off the heap and returns it; remove(0)
// pops the minimum.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	ev := old[i]
	if n != i {
		old.set(i, old[n])
		if !old.down(i, n) {
			old.up(i)
		}
	}
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	return ev
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

// Removed returns the number of queued firings canceled or superseded
// over the engine's lifetime: a Cancel or a re-arm (Schedule, Defer) of
// a queued event counts one, and a placeholder's resolution counts none.
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
// pending firing (or placeholder) if it has one. The event takes a fresh
// sequence number, so the firing order — and the removal count — are
// exactly those of ev.Cancel() followed by At(t, fn), except that
// re-arming a placeholder counts a removal where canceling it does not.
func (e *Engine) Schedule(ev *Event, t float64) {
	e.checkTime(t)
	ev.resolve = nil
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
	e.events.fix(ev.index)
}

// Defer arms ev as a placeholder: it takes the key (Now, fresh seq) and
// the removal count of Schedule(ev, Now()), but its firing time is not
// decided yet. When a placeholder reaches the head of the queue, Step
// (and RunUntil) call resolve instead of firing it; resolve must Retime
// or Cancel ev, and is not counted as a firing. The events ahead of a
// placeholder therefore share its time and have a lower seq.
func (e *Engine) Defer(ev *Event, resolve func()) {
	e.Schedule(ev, e.now)
	ev.resolve = resolve
}

// Retime moves the queued event ev to time t, keeping its seq, and ends
// its placeholder state: it then fires where Schedule would have put it
// at the moment its seq was taken.
func (e *Engine) Retime(ev *Event, t float64) {
	e.checkTime(t)
	if ev.index < 0 || ev.canceled {
		panic("des: retiming an event that is not queued")
	}
	ev.resolve = nil
	ev.time = t
	e.events.fix(ev.index)
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
	e.events.push(ev)
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
		ev.resolve = nil
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
		e.events.remove(ev.index)
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
	e.events.init()
	e.tombstones = 0
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Step fires the next event, advancing the clock to its timestamp. It
// returns false when the queue is empty. Tombstoned (canceled) events
// are skipped and discarded, and placeholders resolved on the way.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.events.remove(0)
	e.cancelBurst = 0
	e.now = ev.time
	e.fired++
	ev.fn()
	return true
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

// peek returns the next event to fire without firing it, draining the
// canceled entries and resolving the placeholders it meets at the head.
func (e *Engine) peek() *Event {
	for len(e.events) > 0 {
		ev := e.events[0]
		switch {
		case ev.canceled:
			e.events.remove(0)
			e.tombstones--
			e.removed++
		case ev.resolve != nil:
			ev.resolve()
			if ev.resolve != nil {
				panic("des: a placeholder's resolve neither retimed nor canceled it")
			}
		default:
			return ev
		}
	}
	return nil
}
