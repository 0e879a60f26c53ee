// Package flow implements a fluid activity model on top of the
// discrete-event kernel: activities (data transfers, computations)
// consume capacity on one or more shared resources (links, CPUs, disks,
// buses), and the instantaneous rate of each activity is determined by
// progressive-filling max-min fairness — the same bandwidth-sharing model
// family used by SimGrid, the framework underlying the paper's simulators.
//
// Whenever the set of activities changes, rates are recomputed — once
// per simulated instant, however many changes it holds — and the next
// completion is scheduled on the engine. Between changes all rates
// are constant, so the simulation advances in O(changes) steps rather
// than fixed time steps.
//
// The solver is incremental: a change dirties the resources whose
// weight sums it altered, and only the connected component of the
// resource↔activity graph reachable from those seeds is re-solved. The
// max-min allocation of a component depends only on that component's
// membership and capacities, so untouched components keep their rates —
// bitwise, not just approximately (see DESIGN.md §9 for the argument).
package flow

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"simcal/internal/des"
	"simcal/internal/obs"
	"simcal/internal/slab"
)

// Solver metrics, accumulated locally per System and flushed into the
// default obs registry once per engine run (see des.Engine.OnRunEnd) so
// the hot solve loop performs no atomic operations.
var (
	metricSolves    = obs.Default().Counter("flow.solves")
	metricSolveIter = obs.Default().Counter("flow.solve_iterations")
)

const workEps = 1e-9

// Resource is a shared capacity (e.g. a link's bandwidth in bytes/s, a
// core's speed in ops/s, a disk's bandwidth in bytes/s).
//
// A resource remembers its index in the System that last registered it,
// stamped with that system's registration generation, so an activity
// start finds it without a lookup. Any number of systems may use a
// resource in turn — another system's stamp only costs a scan of the
// registered resources — but only one may be simulating with it at a
// time.
type Resource struct {
	Name     string
	Capacity float64

	owner *System // the system whose index idx is, as of its generation gen
	gen   int
	idx   int
}

// NewResource returns a resource with the given capacity. Capacity must
// be positive or zero (a zero-capacity resource stalls its users).
func NewResource(name string, capacity float64) *Resource {
	r := &Resource{Name: name}
	r.SetCapacity(capacity)
	return r
}

// SetCapacity changes the resource's capacity, under NewResource's
// validity rule. It is meant for reconfiguring a platform between
// simulations; activities already running keep their rates until the
// next solve that touches the resource.
func (r *Resource) SetCapacity(capacity float64) {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("flow: resource %q with invalid capacity %g", r.Name, capacity))
	}
	r.Capacity = capacity
}

// Usage declares that an activity consumes Weight × rate units/s of a
// resource while running. Weight is typically 1.
type Usage struct {
	Res    *Resource
	Weight float64
}

// Activity is a unit of fluid work in progress.
//
// While active, the mutable per-activity state (rate, remaining work)
// lives in the System's state record at idx; the struct fields hold a
// snapshot taken at completion or cancellation so accessors keep working
// on retired activities — until the System is Reset, which recycles
// every Activity it handed out.
type Activity struct {
	Name      string
	initial   float64
	remaining float64 // snapshot; canonical value in System.st while active
	bound     float64 // max rate; 0 means unbounded
	usage     []Usage
	uidx      []int32 // resource indices, parallel to usage
	upos      []int32 // positions in the per-resource user lists
	ubuf      []int32 // backing of uidx and upos, kept when the struct is recycled
	idx       int     // position in System.active (-1 once removed)
	visitGen  int     // dirty-closure BFS stamp
	onDone    func()
	rate      float64 // snapshot; canonical value in System.st while active
	done      bool
	canceled  bool
	sys       *System
}

// Rate returns the activity's current allocated rate in units/s,
// running the solve the current instant has deferred, if any.
func (a *Activity) Rate() float64 {
	if a.idx >= 0 {
		a.sys.flush()
		return a.sys.st[a.idx].rate
	}
	return a.rate
}

// Remaining returns the work remaining as of the last model update. It
// needs no pending solve: remaining work is integrated only when the
// clock moves, and the clock never moves past a deferred solve.
func (a *Activity) Remaining() float64 {
	if a.idx >= 0 {
		return a.sys.st[a.idx].rem
	}
	return a.remaining
}

// Done reports whether the activity has completed.
func (a *Activity) Done() bool { return a.done }

// Cancel removes an in-flight activity without firing its completion
// callback. Canceling a finished activity is a no-op.
func (a *Activity) Cancel() {
	if a.done || a.canceled {
		return
	}
	a.canceled = true
	a.sys.remove(a)
}

// userRef is one usage entry in a resource's persistent user list; slot
// identifies which of the activity's usages it is, so compaction can
// update the activity's back-pointer. A nil act is a tombstone.
type userRef struct {
	act  *Activity
	slot int32
}

// System manages the set of active fluid activities over an engine.
//
// The active set is an insertion-ordered slice, not a map: the solver
// accumulates floating-point weight sums while iterating it, so the
// iteration order must be a pure function of the simulation's operation
// sequence. A pointer-keyed map would iterate in address order and make
// the last ULPs of every rate vary from process to process. Removal
// tombstones the slot (nil) instead of shifting, keeping removal O(1)
// while preserving the relative order of survivors; per-activity mutable
// state lives in one actState record per slot, in a slice parallel to
// active.
type System struct {
	eng        *des.Engine
	active     []*Activity
	liveCount  int
	tombstones int
	lastUpdate float64
	completion *des.Event
	resolve    func() // s.flush, bound once: the completion placeholder's resolve
	pending    bool   // a reschedule's solve has not run yet (see flush)
	inUpdate   bool

	st []actState // per-slot activity state, parallel to active

	// Solver state. Resources are registered once and indexed (see
	// register); scratch arrays are reused across solves to avoid
	// per-solve allocation.
	regGen     int // registration generation, bumped by Reset
	resources  []*Resource
	capLeft    []float64
	weightSum  []float64
	resetGen   []int
	solveUsers [][]*Activity // per-solve user lists, rebuilt from the solve set
	solveGen   int

	// Incremental-solve state: persistent per-resource user lists (for
	// the dirty-closure BFS), the dirty seed queue, and activities with
	// no resource usages (unreachable by BFS, fixed directly).
	users       [][]userRef
	userDead    []int
	dirty       []int
	resMark     []int
	epoch       int
	pendingFree []*Activity

	// forceFullSolve disables incremental solving (every solve
	// re-solves all live activities). Test hook for the property that
	// incremental and full solves are bitwise identical.
	forceFullSolve bool

	// Reusable scratch hoisted out of the solve and completion paths.
	touched  []int
	bounded  []int32
	set      []*Activity
	finished []*Activity
	acts     slab.Arena[Activity]

	// Solver statistics (totals since construction or the last Reset; see
	// Stats and flushStats).
	statSolves    int
	statIters     int
	statIncremens int
	statMaxActive int
	flushedSolves int
	flushedIters  int
}

// actState is the mutable state of the activity in one active slot.
type actState struct {
	rate     float64
	rem      float64
	eps      float64 // completion threshold, epsFor(initial work)
	bound    float64
	fixedGen int // solver generation at which the rate was fixed
}

// NewSystem returns an empty fluid system bound to eng.
func NewSystem(eng *des.Engine) *System {
	s := &System{eng: eng, epoch: 1}
	s.completion = eng.NewEvent(s.onCompletion)
	s.resolve = s.flush
	eng.OnRunEnd(s.flushStats)
	return s
}

// Reset returns the system to the state NewSystem left it in, for the
// next simulation on the same (already Reset) engine: no activities, no
// registered resources, solver generations and statistics restarted.
// Every slice is truncated rather than reallocated, and the
// registration generation is bumped so that every resource's stamp goes
// stale: resources register — and activities are inserted — in the
// order a fresh system would see, which is what keeps a reused kernel's
// results bit-identical to a fresh one's; only the memory (activity
// structs, per-resource lists, solver scratch) is carried over.
// Activity handles obtained before Reset are invalid afterwards.
func (s *System) Reset() {
	s.flushStats()
	s.completion.Cancel()
	s.active = s.active[:0]
	s.liveCount, s.tombstones, s.lastUpdate, s.pending, s.inUpdate = 0, 0, 0, false, false
	s.st = s.st[:0]
	s.regGen++
	s.resources = s.resources[:0]
	s.capLeft = s.capLeft[:0]
	s.weightSum = s.weightSum[:0]
	s.resetGen = s.resetGen[:0]
	s.solveUsers = s.solveUsers[:0]
	s.solveGen = 0
	s.users = s.users[:0]
	s.userDead = s.userDead[:0]
	s.dirty = s.dirty[:0]
	s.resMark = s.resMark[:0]
	s.epoch = 1
	s.pendingFree = s.pendingFree[:0]
	s.acts.Reset()
	s.statSolves, s.statIters, s.statIncremens, s.statMaxActive = 0, 0, 0, 0
	s.flushedSolves, s.flushedIters = 0, 0
}

// Stats returns the system's solver statistics since construction or
// the last Reset: the number of max-min solves, the total
// progressive-filling iterations across them, and the largest set of
// simultaneously active activities ever solved.
func (s *System) Stats() (solves, iterations, maxActive int) {
	return s.statSolves, s.statIters, s.statMaxActive
}

// flushStats publishes solver statistics to the obs registry; invoked
// once per engine run.
func (s *System) flushStats() {
	metricSolves.Add(int64(s.statSolves - s.flushedSolves))
	metricSolveIter.Add(int64(s.statIters - s.flushedIters))
	s.flushedSolves = s.statSolves
	s.flushedIters = s.statIters
}

// register assigns (or returns) the index of a resource, and renews its
// stamp. The stamp answers when this system set it in the current
// generation. A resource with no stamp, or with this system's from an
// earlier generation, is not registered yet: Reset emptied the list.
// Only one stamped by another system is looked for among the registered
// resources.
func (s *System) register(r *Resource) int {
	if r.owner == s && r.gen == s.regGen {
		return r.idx
	}
	i := -1
	if r.owner != s && r.owner != nil {
		i = slices.Index(s.resources, r)
	}
	if i < 0 {
		i = len(s.resources)
		s.resources = append(s.resources, r)
		s.capLeft = append(s.capLeft, 0)
		s.weightSum = append(s.weightSum, 0)
		s.resetGen = append(s.resetGen, 0)
		s.solveUsers = extend(s.solveUsers)
		s.users = extend(s.users)
		s.userDead = append(s.userDead, 0)
		s.resMark = append(s.resMark, 0)
	}
	r.owner, r.gen, r.idx = s, s.regGen, i
	return i
}

// extend grows a slice of slices by one empty element. After a Reset the
// element is the one a previous simulation left in the spare capacity,
// emptied but keeping its backing array.
func extend[T any](ss [][]T) [][]T {
	if n := len(ss); n < cap(ss) {
		ss = ss[:n+1]
		ss[n] = ss[n][:0]
		return ss
	}
	return append(ss, nil)
}

// Engine returns the engine the system schedules on.
func (s *System) Engine() *des.Engine { return s.eng }

// ActiveCount returns the number of in-flight activities.
func (s *System) ActiveCount() int { return s.liveCount }

// StartActivity begins a fluid activity with the given total work,
// optional rate bound (0 = unbounded), resource usages, and completion
// callback (may be nil). An activity with zero work completes via an
// immediate event. The returned activity can be canceled.
func (s *System) StartActivity(name string, work, bound float64, usage []Usage, onDone func()) *Activity {
	if work < 0 || math.IsNaN(work) {
		panic(fmt.Sprintf("flow: activity %q with invalid work %g", name, work))
	}
	if bound < 0 {
		panic(fmt.Sprintf("flow: activity %q with negative bound", name))
	}
	for _, u := range usage {
		if u.Weight <= 0 || u.Res == nil {
			panic(fmt.Sprintf("flow: activity %q with invalid usage", name))
		}
	}
	a := s.acts.Get()
	n := len(usage)
	ubuf := a.ubuf // a recycled struct keeps its index backing
	if cap(ubuf) < 2*n {
		ubuf = make([]int32, 2*n)
	}
	// Field by field: a struct literal would be built whole, then copied.
	a.Name, a.initial, a.remaining, a.bound, a.onDone, a.sys = name, work, work, bound, onDone, s
	a.usage, a.uidx, a.upos, a.ubuf = usage, ubuf[:n:n], ubuf[n:2*n], ubuf
	a.idx, a.visitGen, a.rate, a.done, a.canceled = 0, 0, 0, false, false
	for i, u := range usage {
		a.uidx[i] = int32(s.register(u.Res))
	}
	s.advance()
	s.addActive(a)
	s.reschedule()
	return a
}

// addActive appends a to the insertion-ordered active list and its
// resources' user lists, and seeds the dirty closure with its resources.
func (s *System) addActive(a *Activity) {
	a.idx = len(s.active)
	s.active = append(s.active, a)
	s.st = append(s.st, actState{rem: a.remaining, eps: epsFor(a.initial), bound: a.bound})
	s.liveCount++
	if len(a.uidx) == 0 {
		// No resources: unreachable by the dirty BFS; fixed directly at
		// the next solve.
		s.pendingFree = append(s.pendingFree, a)
		return
	}
	for j, ri := range a.uidx {
		a.upos[j] = int32(len(s.users[ri]))
		s.users[ri] = append(s.users[ri], userRef{act: a, slot: int32(j)})
		s.markDirty(int(ri))
	}
}

// removeActive tombstones a's slot — preserving the insertion order of
// the survivors, which keeps solver iteration a pure function of the
// operation sequence — snapshots its mutable state into the struct, and
// seeds the dirty closure with its resources. The active list and each
// user list are compacted (a deterministic, order-preserving rebuild)
// as soon as their dead entries outnumber the live ones, so every scan
// of them walks at most 2·live+1 entries, and compaction amortizes to
// O(1) per removal.
func (s *System) removeActive(a *Activity) {
	i := a.idx
	a.rate, a.remaining = s.st[i].rate, s.st[i].rem
	for j, ri := range a.uidx {
		s.users[ri][a.upos[j]] = userRef{}
		s.userDead[ri]++
		s.markDirty(int(ri))
		if d := s.userDead[ri]; d > len(s.users[ri])-d {
			s.compactUsers(int(ri))
		}
	}
	s.active[i] = nil
	a.idx = -1
	s.liveCount--
	s.tombstones++
	if s.tombstones > s.liveCount {
		s.compactActive()
	}
}

// compactActive rebuilds the active list (and its parallel state
// records) without tombstones. Order is preserved, so relative idx
// comparisons still encode insertion order; the trigger is a pure
// function of the operation sequence, so compaction is deterministic.
func (s *System) compactActive() {
	live := 0
	for i, a := range s.active {
		if a == nil {
			continue
		}
		if i != live {
			s.active[live] = a
			a.idx = live
			s.st[live] = s.st[i]
		}
		live++
	}
	for i := live; i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = s.active[:live]
	s.st = s.st[:live]
	s.tombstones = 0
}

// compactUsers rebuilds a resource's persistent user list without
// tombstones, fixing the surviving activities' back-pointers.
func (s *System) compactUsers(ri int) {
	refs := s.users[ri]
	live := refs[:0]
	for _, ref := range refs {
		if ref.act == nil {
			continue
		}
		ref.act.upos[ref.slot] = int32(len(live))
		live = append(live, ref)
	}
	for i := len(live); i < len(refs); i++ {
		refs[i] = userRef{}
	}
	s.users[ri] = live
	s.userDead[ri] = 0
}

// markDirty seeds the incremental solver with a resource whose weight
// sum changed.
func (s *System) markDirty(ri int) {
	if s.resMark[ri] != s.epoch {
		s.resMark[ri] = s.epoch
		s.dirty = append(s.dirty, ri)
	}
}

// Batch runs fn with reschedules deferred until fn returns, so the
// changes fn makes reserve the completion event's seq once, at the end,
// instead of once each. The solve itself runs at the end of the instant
// either way (see flush); what Batch still decides is where that seq is
// reserved, and with it the completion's place among simultaneous
// events, so removing a Batch call can move bits. A solve the instant
// deferred before fn runs first, so that a rate read or a cancel inside
// fn sees what it would have seen had every change solved at once.
// Nested batches are flattened. The deferral is released even if fn
// panics, so a recovered callback panic (see internal/resilience)
// cannot leave the system permanently deferring reschedules.
func (s *System) Batch(fn func()) {
	if s.inUpdate {
		fn()
		return
	}
	s.flush()
	s.inUpdate = true
	defer func() {
		s.inUpdate = false
		s.reschedule()
	}()
	fn()
}

// remove drops an activity from the active set and recomputes the
// schedule. It solves first, so the canceled activity's rate snapshot
// is its solved rate.
func (s *System) remove(a *Activity) {
	s.flush()
	s.advance()
	s.removeActive(a)
	s.reschedule()
}

// advance integrates all activity progress from lastUpdate to now.
func (s *System) advance() {
	now := s.eng.Now()
	dt := now - s.lastUpdate
	s.lastUpdate = now
	if dt <= 0 {
		return
	}
	for i, a := range s.active {
		if a == nil {
			continue
		}
		st := &s.st[i]
		if math.IsInf(st.rate, 1) {
			st.rem = 0
			continue
		}
		rem := st.rem - float64(st.rate*dt) // no fused multiply-subtract (DESIGN §9)
		if rem < st.eps {
			rem = 0
		}
		st.rem = rem
	}
}

// epsFor is the completion threshold: relative to the activity's initial
// work so that float64 rounding on large work values (e.g. 10^9 ops)
// cannot strand a microscopic residue that forces extra tiny steps.
func epsFor(initial float64) float64 {
	e := workEps * initial
	if e < workEps {
		e = workEps
	}
	return e
}

// timeEps is the smallest delay representable at the current clock
// value: below it, now+dt == now and an event could fire forever without
// advancing time. Activities whose remaining time falls under it are
// complete for all simulation purposes.
func (s *System) timeEps() float64 {
	now := s.eng.Now()
	ulp := math.Nextafter(now, math.Inf(1)) - now
	if ulp < 1e-12 {
		ulp = 1e-12
	}
	return 2 * ulp
}

// effectivelyDoneAt reports whether the activity at index i has
// exhausted its work or cannot progress measurably within the clock's
// float64 resolution.
func (s *System) effectivelyDoneAt(i int, timeEps float64) bool {
	st := &s.st[i]
	if st.rem <= st.eps || math.IsInf(st.rate, 1) {
		return true
	}
	return st.rate > 0 && st.rem/st.rate <= timeEps
}

// reschedule records a change to the activity set: it re-arms the
// completion event as a placeholder at (now, fresh seq) — the seq, and
// the removal count, a re-arm at its final time would have taken — and
// leaves the solve pending until flush. Every later change in the same
// instant supersedes the reservation, so the instant solves once. During
// a batch update it is deferred until the batch ends.
func (s *System) reschedule() {
	if s.inUpdate {
		return
	}
	s.eng.Defer(s.completion, s.resolve)
	s.pending = true
}

// flush runs the pending solve, if any: the placeholder's resolution,
// a rate read, a cancel and a Batch start call it. The solve's dirty
// seeds are the union of those of the changes it stands for, so it
// assigns the rates that solving at each of them would have left
// (DESIGN §9). The completion then moves from its placeholder to now+dt
// with the seq the last reschedule reserved, or is canceled when
// nothing can complete.
func (s *System) flush() {
	if !s.pending {
		return
	}
	s.pending = false
	s.solveDirty()
	te := s.timeEps()
	dt := math.Inf(1)
	for i, a := range s.active {
		if a == nil {
			continue
		}
		var d float64
		switch {
		case s.effectivelyDoneAt(i, te):
			d = 0
		case s.st[i].rate <= 0:
			continue // stalled; cannot complete
		default:
			d = s.st[i].rem / s.st[i].rate
		}
		if d < dt {
			dt = d
		}
	}
	if math.IsInf(dt, 1) {
		s.completion.Cancel()
		return
	}
	if dt > 0 && dt < te {
		// Never schedule below the clock's resolution: the event would
		// fire at an unchanged Now() and make no progress.
		dt = te
	}
	s.eng.Retime(s.completion, s.eng.Now()+dt)
}

// onCompletion fires completion callbacks for every activity that has
// exhausted its work, then reschedules. Callbacks may start new
// activities; those are folded into a single rate recomputation. The
// batch deferral is released even if a callback panics (and the caller
// recovers), so the system keeps rescheduling afterwards.
func (s *System) onCompletion() {
	s.advance()
	te := s.timeEps()
	finished := s.finished[:0]
	for _, a := range s.active {
		if a != nil && s.effectivelyDoneAt(a.idx, te) {
			finished = append(finished, a)
		}
	}
	s.finished = finished
	// Callbacks fire in name order; ties between identically named
	// activities break by start order (finished is collected in insertion
	// order, and idx encodes it).
	slices.SortStableFunc(finished, func(x, y *Activity) int {
		if c := strings.Compare(x.Name, y.Name); c != 0 {
			return c
		}
		return x.idx - y.idx
	})
	s.inUpdate = true
	defer func() {
		s.inUpdate = false
		s.reschedule()
	}()
	for _, a := range finished {
		s.removeActive(a)
		a.done = true
		a.remaining = 0
	}
	for _, a := range finished {
		if a.onDone != nil {
			a.onDone()
		}
	}
}

// solveDirty re-solves exactly the activities whose max-min allocation
// can have changed since the last solve: the connected component(s) of
// the resource↔activity graph reachable from the dirty resources. When
// nothing is dirty the solve is skipped entirely — untouched components
// keep their rates, which are bitwise identical to what a full re-solve
// would assign them.
func (s *System) solveDirty() {
	if s.forceFullSolve {
		if len(s.dirty) > 0 || len(s.pendingFree) > 0 {
			s.solve()
		}
		return
	}
	if len(s.dirty) == 0 && len(s.pendingFree) == 0 {
		return
	}
	// Activities with no usages never contend: a full solve assigns them
	// exactly their bound (the bound-limited fix always fires at the
	// activity's own bound) or +Inf. Fix them directly.
	for _, a := range s.pendingFree {
		if a.idx < 0 {
			continue // canceled before the first solve
		}
		if a.bound > 0 {
			s.st[a.idx].rate = a.bound
		} else {
			s.st[a.idx].rate = math.Inf(1)
		}
	}
	s.pendingFree = s.pendingFree[:0]
	// BFS closure over the bipartite resource↔activity graph. The seed
	// order and expansion are deterministic, and the set is put in
	// insertion order below, so the solve iterates exactly the
	// subsequence of the full active list that belongs to the dirty
	// component(s).
	set := s.set[:0]
	for qi := 0; qi < len(s.dirty); qi++ {
		for _, ref := range s.users[s.dirty[qi]] {
			a := ref.act
			if a == nil || a.visitGen == s.epoch {
				continue
			}
			a.visitGen = s.epoch
			set = append(set, a)
			for _, rj := range a.uidx {
				s.markDirty(int(rj))
			}
		}
	}
	s.dirty = s.dirty[:0]
	s.epoch++
	if len(set) == 0 {
		s.set = set
		return
	}
	if len(set) == s.liveCount {
		// The closure is every live activity: sweeping the active list
		// yields exactly the sort's order, without sorting.
		set = s.appendLive(set[:0])
	} else {
		slices.SortFunc(set, func(x, y *Activity) int { return x.idx - y.idx })
		s.statIncremens++
	}
	s.runSolve(set)
	s.set = set[:0]
}

// solve recomputes max-min fair rates for every active activity from
// scratch, consuming any pending incremental state. The incremental
// path produces bitwise-identical results; this full solve remains the
// reference entry point (and is exercised directly by tests).
func (s *System) solve() {
	set := s.appendLive(s.set[:0])
	s.dirty = s.dirty[:0]
	s.epoch++
	s.pendingFree = s.pendingFree[:0]
	s.runSolve(set)
	s.set = set[:0]
}

// appendLive appends every live activity to set in insertion order.
func (s *System) appendLive(set []*Activity) []*Activity {
	for _, a := range s.active {
		if a != nil {
			set = append(set, a)
		}
	}
	return set
}

// runSolve computes max-min fair rates for the given activities (a
// subsequence of the active list in insertion order) using progressive
// filling: repeatedly find the tightest constraint (a resource's fair
// share or an activity's rate bound), freeze the activities it limits,
// and continue with the remaining capacity.
//
// The implementation is allocation-free and index-based: per-resource
// remaining capacity, unfixed weight sums, and user lists live in
// reusable arrays; per-activity rate/bound/fixed state lives in the
// System's state records so the inner scans are cache-linear; and
// fixing an activity incrementally updates the weight sums of the
// resources it touches. Complexity is O(A·u + iterations·R) where A is
// the number of activities solved, u the usages per activity, and R the
// touched resources.
func (s *System) runSolve(set []*Activity) {
	if len(set) == 0 {
		return
	}
	s.statSolves++
	if s.liveCount > s.statMaxActive {
		s.statMaxActive = s.liveCount
	}
	s.solveGen++
	gen := s.solveGen
	touched := s.touched[:0]
	bounded := s.bounded[:0]
	unfixed := len(set)
	// One pass in set order: reset each activity, init per-resource state
	// on a resource's first touch (generation stamps), then accumulate
	// weights and user lists, so each resource's weight sum adds its
	// users' weights in set order.
	for _, a := range set {
		i := a.idx
		s.st[i].rate = 0
		s.st[i].fixedGen = 0
		if a.bound > 0 {
			bounded = append(bounded, int32(i))
		}
		for j, ri := range a.uidx {
			if s.resetGen[ri] != gen {
				s.resetGen[ri] = gen
				touched = append(touched, int(ri))
				s.capLeft[ri] = s.resources[ri].Capacity
				s.weightSum[ri] = 0
				s.solveUsers[ri] = s.solveUsers[ri][:0]
			}
			s.weightSum[ri] += a.usage[j].Weight
			s.solveUsers[ri] = append(s.solveUsers[ri], a)
		}
	}
	s.touched = touched
	s.bounded = bounded

	// fix freezes an activity's rate and removes its weight from its
	// resources.
	fix := func(a *Activity, rate float64) {
		s.st[a.idx].rate = rate
		s.st[a.idx].fixedGen = gen
		unfixed--
		for j, ri := range a.uidx {
			w := a.usage[j].Weight
			s.capLeft[ri] -= float64(w * rate) // no fused multiply-subtract
			if s.capLeft[ri] < 0 {
				s.capLeft[ri] = 0
			}
			s.weightSum[ri] -= w
			if s.weightSum[ri] < 1e-12 {
				s.weightSum[ri] = 0
			}
		}
	}

	for unfixed > 0 {
		s.statIters++
		best := math.Inf(1)
		bottleneck := -1
		for _, ri := range touched {
			ws := s.weightSum[ri]
			if ws <= 0 {
				continue
			}
			share := s.capLeft[ri] / ws
			if share < best {
				best = share
				bottleneck = ri
			}
		}
		boundLimited := false
		for _, i := range bounded {
			if st := &s.st[i]; st.fixedGen != gen && st.bound < best {
				best = st.bound
				boundLimited = true
			}
		}
		if math.IsInf(best, 1) {
			// No constraints left: remaining activities finish instantly.
			for _, a := range set {
				if st := &s.st[a.idx]; st.fixedGen != gen {
					st.rate = math.Inf(1)
					st.fixedGen = gen
					unfixed--
				}
			}
			return
		}
		if best < 0 {
			best = 0
		}
		if boundLimited {
			for _, i := range bounded {
				if st := &s.st[i]; st.fixedGen != gen && st.bound <= best {
					fix(s.active[i], best)
				}
			}
			continue
		}
		fixedAny := false
		for _, a := range s.solveUsers[bottleneck] {
			if s.st[a.idx].fixedGen == gen {
				continue
			}
			fix(a, best)
			fixedAny = true
		}
		if !fixedAny {
			// Defensive: numerically stuck — freeze everything left.
			for _, a := range set {
				if s.st[a.idx].fixedGen != gen {
					fix(a, best)
				}
			}
		}
	}
}
