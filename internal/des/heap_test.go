package des

import (
	"math"
	"math/rand"
	"testing"
)

// refEvent is the reference model's view of one event handle: whether it
// holds a queue slot, whether it is canceled (a queued canceled event is
// a tombstone), the (time, seq) it was last stamped with, and whether it
// is a placeholder — with the time its resolution retimes it to, or
// NaN if the resolution cancels it.
type refEvent struct {
	id          int
	time        float64
	seq         uint64
	queued      bool
	canceled    bool
	placeholder bool
	resolveTo   float64
}

// refQueue models the engine's documented semantics — firing in (time,
// seq) order, eager removal of isolated cancels, tombstoning past
// cancelBurstLimit consecutive cancels with a drain once half the slots
// are dead, placeholders resolved at the head without firing and
// dropped without a removal — over a plain slice with no heap, so its
// counts and firing order are independent of any heap layout.
type refQueue struct {
	now                      float64
	seq                      uint64
	slots                    []*refEvent
	tombstones, cancelBurst  int
	fired, removed, maxSlots int
	drains                   int
}

func (q *refQueue) min() int {
	m := 0
	for i, ev := range q.slots {
		if ev.time < q.slots[m].time || ev.time == q.slots[m].time && ev.seq < q.slots[m].seq {
			m = i
		}
	}
	return m
}

func (q *refQueue) take(i int) *refEvent {
	ev := q.slots[i]
	q.slots = append(q.slots[:i], q.slots[i+1:]...)
	ev.queued = false
	return ev
}

func (q *refQueue) push(ev *refEvent, t float64) {
	q.cancelBurst = 0
	ev.time, ev.seq, ev.queued = t, q.seq, true
	q.seq++
	q.slots = append(q.slots, ev)
	q.maxSlots = max(q.maxSlots, len(q.slots))
}

func (q *refQueue) schedule(ev *refEvent, t float64) {
	ev.placeholder = false
	if !ev.queued {
		ev.canceled = false
		q.push(ev, t)
		return
	}
	if ev.canceled {
		ev.canceled = false
		q.tombstones--
	}
	q.removed++
	q.cancelBurst = 0
	ev.time, ev.seq = t, q.seq
	q.seq++
}

// deferTo arms ev as a placeholder at (now, fresh seq) whose resolution
// retimes it to resolveTo, or cancels it if resolveTo is NaN.
func (q *refQueue) deferTo(ev *refEvent, resolveTo float64) {
	q.schedule(ev, q.now)
	ev.placeholder, ev.resolveTo = true, resolveTo
}

// retime moves a queued live event to t keeping its seq.
func (q *refQueue) retime(ev *refEvent, t float64) {
	ev.time, ev.placeholder = t, false
}

// resolve applies the placeholder at slot i's resolution: no firing, and
// a cancel that counts no removal.
func (q *refQueue) resolve(i int) {
	ev := q.slots[i]
	if math.IsNaN(ev.resolveTo) {
		ev.canceled, ev.placeholder = true, false
		q.take(i)
		return
	}
	q.retime(ev, ev.resolveTo)
}

func (q *refQueue) cancel(ev *refEvent) {
	if ev.canceled {
		return
	}
	ev.canceled = true
	if ev.placeholder {
		ev.placeholder = false
		for i, s := range q.slots {
			if s == ev {
				q.take(i)
			}
		}
		return
	}
	if !ev.queued {
		return
	}
	q.cancelBurst++
	if q.cancelBurst <= cancelBurstLimit {
		for i, s := range q.slots {
			if s == ev {
				q.take(i)
			}
		}
		q.removed++
		return
	}
	q.tombstones++
	if q.tombstones*2 >= len(q.slots) {
		live := q.slots[:0]
		for _, s := range q.slots {
			if s.canceled {
				s.queued = false
				q.removed++
				continue
			}
			live = append(live, s)
		}
		q.slots = live
		q.tombstones = 0
		q.drains++
	}
}

// step returns the id of the event the engine must fire next, or -1.
func (q *refQueue) step() int {
	for len(q.slots) > 0 {
		m := q.min()
		if q.slots[m].placeholder {
			q.resolve(m)
			continue
		}
		ev := q.take(m)
		if ev.canceled {
			q.tombstones--
			q.removed++
			continue
		}
		q.cancelBurst = 0
		q.now = ev.time
		q.fired++
		return ev.id
	}
	return -1
}

// runUntil returns the ids RunUntil(t) must fire, in order.
func (q *refQueue) runUntil(t float64) []int {
	var ids []int
	for len(q.slots) > 0 {
		m := q.min()
		if q.slots[m].canceled {
			q.take(m)
			q.tombstones--
			q.removed++
			continue
		}
		if q.slots[m].placeholder {
			q.resolve(m)
			continue
		}
		if q.slots[m].time > t {
			break
		}
		ids = append(ids, q.step())
	}
	q.now = max(q.now, t)
	return ids
}

// TestHeapMatchesReference drives seeded random sequences of At,
// Schedule (re-arming live, fired and canceled events), Defer (arming
// placeholders that resolve to a retime or a cancel), Retime, Cancel —
// in isolation and in storms long enough to tombstone and drain — Step
// and RunUntil through an engine and through refQueue, and requires the
// same firing sequence and the same Pending, Removed, MaxPending and
// Fired after every operation. Times are small integers, so
// simultaneous events are common and the seq tie-break decides most
// orderings.
func TestHeapMatchesReference(t *testing.T) {
	drains, tombstoned, resolved := 0, 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var q refQueue
		var got []int
		var evs []*Event
		var refs []*refEvent
		var resolves []func()
		newHandle := func(reusable bool, t float64) {
			id := len(evs)
			fn := func() { got = append(got, id) }
			ref := &refEvent{id: id}
			var ev *Event
			if reusable {
				ev = e.NewEvent(fn)
				e.Schedule(ev, t)
				q.schedule(ref, t)
			} else {
				ev = e.At(t, fn)
				q.push(ref, t)
			}
			evs, refs = append(evs, ev), append(refs, ref)
			resolves = append(resolves, func() {
				resolved++
				if to := ref.resolveTo; math.IsNaN(to) {
					ev.Cancel()
				} else {
					e.Retime(ev, to)
				}
			})
		}
		later := func() float64 { return q.now + float64(rng.Intn(6)) }
		var want []int
		for op := 0; op < 1500; op++ {
			switch k := rng.Intn(100); {
			case k < 30:
				newHandle(rng.Intn(8) == 0, later())
			case k < 45 && len(evs) > 0:
				// Re-arm a handle that may be queued, tombstoned, fired or
				// canceled.
				i := rng.Intn(len(evs))
				t := later()
				e.Schedule(evs[i], t)
				q.schedule(refs[i], t)
			case k < 52 && len(evs) > 0:
				// Arm a placeholder; the reference holds its resolution,
				// which the engine's resolve reads when it gets there.
				i := rng.Intn(len(evs))
				to := math.NaN()
				if rng.Intn(3) > 0 {
					to = later()
				}
				q.deferTo(refs[i], to)
				e.Defer(evs[i], resolves[i])
			case k < 55 && len(evs) > 0:
				// Retime a queued live event, placeholder or not, before
				// it reaches the head.
				i := rng.Intn(len(evs))
				if r := refs[i]; r.queued && !r.canceled {
					t := later()
					e.Retime(evs[i], t)
					q.retime(r, t)
				}
			case k < 63 && len(evs) > 0:
				i := rng.Intn(len(evs))
				evs[i].Cancel()
				q.cancel(refs[i])
			case k < 66:
				// A storm: grow the queue, then cancel well past the
				// burst limit with nothing scheduled or fired between.
				for n := 2*cancelBurstLimit + rng.Intn(64); n > 0; n-- {
					newHandle(false, later())
				}
				for n := cancelBurstLimit + 1 + rng.Intn(3*cancelBurstLimit); n > 0; n-- {
					i := len(evs) - 1 - rng.Intn(min(len(evs), 4*cancelBurstLimit))
					evs[i].Cancel()
					q.cancel(refs[i])
				}
			case k < 91:
				if id := q.step(); id >= 0 {
					want = append(want, id)
				}
				e.Step()
			default:
				until := q.now + float64(rng.Intn(4))
				want = append(want, q.runUntil(until)...)
				e.RunUntil(until)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d: engine fired %d events, reference %d", seed, op, len(got), len(want))
			}
			if n := len(got); n > 0 && got[n-1] != want[n-1] {
				t.Fatalf("seed %d op %d: firing %d is event %d, reference says %d", seed, op, n-1, got[n-1], want[n-1])
			}
			if p, w := e.Pending(), len(q.slots)-q.tombstones; p != w {
				t.Fatalf("seed %d op %d: Pending = %d, reference %d", seed, op, p, w)
			}
			if r := e.Removed(); r != q.removed {
				t.Fatalf("seed %d op %d: Removed = %d, reference %d", seed, op, r, q.removed)
			}
			if m := e.MaxPending(); m != q.maxSlots {
				t.Fatalf("seed %d op %d: MaxPending = %d, reference %d", seed, op, m, q.maxSlots)
			}
			if e.tombstones > 0 {
				tombstoned++
			}
			if e.Now() != q.now || e.Fired() != q.fired {
				t.Fatalf("seed %d op %d: Now, Fired = %g, %d, reference %g, %d", seed, op, e.Now(), e.Fired(), q.now, q.fired)
			}
		}
		for id := q.step(); id >= 0; id = q.step() {
			want = append(want, id)
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("seed %d: final firing sequences diverge at %d", seed, i)
			}
		}
		if len(got) != len(want) || e.Removed() != q.removed || e.Pending() != 0 {
			t.Fatalf("seed %d: drained engine fired %d (reference %d), Removed %d (reference %d), Pending %d",
				seed, len(got), len(want), e.Removed(), q.removed, e.Pending())
		}
		drains += q.drains
	}
	if drains == 0 || tombstoned == 0 {
		t.Fatalf("%d drains, %d operations with tombstones queued: the storms exercised nothing", drains, tombstoned)
	}
	if resolved == 0 {
		t.Fatal("no placeholder reached the head of the queue")
	}
}
