// Package flow implements a fluid activity model on top of the
// discrete-event kernel: activities (data transfers, computations)
// consume capacity on one or more shared resources (links, CPUs, disks,
// buses), and the instantaneous rate of each activity is determined by
// progressive-filling max-min fairness — the same bandwidth-sharing model
// family used by SimGrid, the framework underlying the paper's simulators.
//
// Whenever the set of activities changes, rates are recomputed and the
// next completion is scheduled on the engine. Between changes all rates
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
	metricIncSolves = obs.Default().Counter("flow.incremental_solves")
	metricActMax    = obs.Default().Gauge("flow.activities_max")
)

const workEps = 1e-9

// Resource is a shared capacity (e.g. a link's bandwidth in bytes/s, a
// core's speed in ops/s, a disk's bandwidth in bytes/s).
type Resource struct {
	Name     string
	Capacity float64
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
// lives in the System's structure-of-arrays slices indexed by idx; the
// struct fields hold a snapshot taken at completion or cancellation so
// accessors keep working on retired activities — until the System is
// Reset, which recycles every Activity it handed out.
type Activity struct {
	Name      string
	initial   float64
	remaining float64 // snapshot; canonical value in System.remArr while active
	bound     float64 // max rate; 0 means unbounded
	usage     []Usage
	uidx      []int32 // resource indices, parallel to usage
	upos      []int32 // positions in the per-resource user lists
	ubuf      []int32 // backing of uidx and upos, kept when the struct is recycled
	idx       int     // position in System.active (-1 once removed)
	visitGen  int     // dirty-closure BFS stamp
	onDone    func()
	rate      float64 // snapshot; canonical value in System.rateArr while active
	done      bool
	canceled  bool
	sys       *System
}

// Rate returns the activity's current allocated rate in units/s.
func (a *Activity) Rate() float64 {
	if a.idx >= 0 {
		return a.sys.rateArr[a.idx]
	}
	return a.rate
}

// Remaining returns the work remaining as of the last model update.
func (a *Activity) Remaining() float64 {
	if a.idx >= 0 {
		return a.sys.remArr[a.idx]
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

// compactSlack is the tombstone budget for the active list and per-
// resource user lists: compaction (a deterministic, order-preserving
// rebuild) runs once dead entries outnumber live ones by this margin,
// amortizing to O(1) per removal.
const compactSlack = 64

// System manages the set of active fluid activities over an engine.
//
// The active set is an insertion-ordered slice, not a map: the solver
// accumulates floating-point weight sums while iterating it, so the
// iteration order must be a pure function of the simulation's operation
// sequence. A pointer-keyed map would iterate in address order and make
// the last ULPs of every rate vary from process to process. Removal
// tombstones the slot (nil) instead of shifting, keeping removal O(1)
// while preserving the relative order of survivors; per-activity mutable
// state lives in parallel slices (rateArr, remArr, initArr, boundArr,
// fixedGen) indexed by the same positions.
type System struct {
	eng        *des.Engine
	active     []*Activity
	liveCount  int
	tombstones int
	lastUpdate float64
	completion *des.Event
	inUpdate   bool

	// Structure-of-arrays activity state, parallel to active.
	rateArr  []float64
	remArr   []float64
	initArr  []float64
	boundArr []float64
	fixedGen []int // solver generation at which the rate was fixed

	// Solver state. Resources are registered once and indexed; scratch
	// arrays are reused across solves to avoid per-solve allocation.
	resIdx     map[*Resource]int
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

	// forceFullSolve disables incremental solving (every reschedule
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
	flushedIncs   int
}

// NewSystem returns an empty fluid system bound to eng.
func NewSystem(eng *des.Engine) *System {
	s := &System{
		eng:    eng,
		resIdx: make(map[*Resource]int),
		epoch:  1,
	}
	s.completion = eng.NewEvent(s.onCompletion)
	eng.OnRunEnd(s.flushStats)
	return s
}

// Reset returns the system to the state NewSystem left it in, for the
// next simulation on the same (already Reset) engine: no activities, no
// registered resources, solver generations and statistics restarted.
// Every slice is truncated and the resource index cleared rather than
// reallocated, so resources register — and activities are inserted — in
// the order a fresh system would see, which is what keeps a reused
// kernel's results bit-identical to a fresh one's; only the memory
// (activity structs, per-resource lists, solver scratch) is carried
// over. Activity handles obtained before Reset are invalid afterwards.
func (s *System) Reset() {
	s.flushStats()
	s.completion.Cancel()
	s.active = s.active[:0]
	s.liveCount, s.tombstones, s.lastUpdate, s.inUpdate = 0, 0, 0, false
	s.rateArr = s.rateArr[:0]
	s.remArr = s.remArr[:0]
	s.initArr = s.initArr[:0]
	s.boundArr = s.boundArr[:0]
	s.fixedGen = s.fixedGen[:0]
	clear(s.resIdx)
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
	s.flushedSolves, s.flushedIters, s.flushedIncs = 0, 0, 0
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
	metricIncSolves.Add(int64(s.statIncremens - s.flushedIncs))
	s.flushedSolves = s.statSolves
	s.flushedIters = s.statIters
	s.flushedIncs = s.statIncremens
	metricActMax.SetMax(float64(s.statMaxActive))
}

// register assigns (or returns) the index of a resource.
func (s *System) register(r *Resource) int {
	if i, ok := s.resIdx[r]; ok {
		return i
	}
	i := len(s.resources)
	s.resIdx[r] = i
	s.resources = append(s.resources, r)
	s.capLeft = append(s.capLeft, 0)
	s.weightSum = append(s.weightSum, 0)
	s.resetGen = append(s.resetGen, 0)
	s.solveUsers = extend(s.solveUsers)
	s.users = extend(s.users)
	s.userDead = append(s.userDead, 0)
	s.resMark = append(s.resMark, 0)
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
	*a = Activity{
		Name: name, initial: work, remaining: work, bound: bound, onDone: onDone, sys: s,
		usage: usage, uidx: ubuf[:n:n], upos: ubuf[n : 2*n], ubuf: ubuf,
	}
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
	s.rateArr = append(s.rateArr, 0)
	s.remArr = append(s.remArr, a.remaining)
	s.initArr = append(s.initArr, a.initial)
	s.boundArr = append(s.boundArr, a.bound)
	s.fixedGen = append(s.fixedGen, 0)
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
// seeds the dirty closure with its resources.
func (s *System) removeActive(a *Activity) {
	i := a.idx
	a.rate = s.rateArr[i]
	a.remaining = s.remArr[i]
	for j, ri := range a.uidx {
		s.users[ri][a.upos[j]] = userRef{}
		s.userDead[ri]++
		s.markDirty(int(ri))
		if d := s.userDead[ri]; d > len(s.users[ri])-d+compactSlack {
			s.compactUsers(int(ri))
		}
	}
	s.active[i] = nil
	a.idx = -1
	s.liveCount--
	s.tombstones++
	if s.tombstones > s.liveCount+compactSlack {
		s.compactActive()
	}
}

// compactActive rebuilds the active list (and its parallel state
// slices) without tombstones. Order is preserved, so relative idx
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
			s.rateArr[live] = s.rateArr[i]
			s.remArr[live] = s.remArr[i]
			s.initArr[live] = s.initArr[i]
			s.boundArr[live] = s.boundArr[i]
			s.fixedGen[live] = s.fixedGen[i]
		}
		live++
	}
	for i := live; i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = s.active[:live]
	s.rateArr = s.rateArr[:live]
	s.remArr = s.remArr[:live]
	s.initArr = s.initArr[:live]
	s.boundArr = s.boundArr[:live]
	s.fixedGen = s.fixedGen[:live]
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

// Batch runs fn, deferring rate recomputation until fn returns, so that
// many activities can be started (or canceled) with a single max-min
// solve. Nested batches are flattened. Simulators that launch hundreds
// of simultaneous transfers (e.g. an MPI exchange round) should wrap
// them in a Batch. The deferral is released even if fn panics, so a
// recovered callback panic (see internal/resilience) cannot leave the
// system permanently deferring reschedules.
func (s *System) Batch(fn func()) {
	if s.inUpdate {
		fn()
		return
	}
	s.inUpdate = true
	defer func() {
		s.inUpdate = false
		s.reschedule()
	}()
	fn()
}

// remove drops an activity from the active set and recomputes the
// schedule.
func (s *System) remove(a *Activity) {
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
		r := s.rateArr[i]
		if math.IsInf(r, 1) {
			s.remArr[i] = 0
			continue
		}
		rem := s.remArr[i] - r*dt
		if rem < epsFor(s.initArr[i]) {
			rem = 0
		}
		s.remArr[i] = rem
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
	r := s.rateArr[i]
	if s.remArr[i] <= epsFor(s.initArr[i]) || math.IsInf(r, 1) {
		return true
	}
	return r > 0 && s.remArr[i]/r <= timeEps
}

// reschedule recomputes rates and (re)schedules the next completion
// event. During a batch update it is deferred until the batch ends.
func (s *System) reschedule() {
	if s.inUpdate {
		return
	}
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
		case s.rateArr[i] <= 0:
			continue // stalled; cannot complete
		default:
			d = s.remArr[i] / s.rateArr[i]
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
	// One event for the system's whole life, re-armed in place: Schedule
	// numbers and orders it exactly as the former cancel + After pair did.
	s.eng.Schedule(s.completion, s.eng.Now()+dt)
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
		if x.Name != y.Name {
			if x.Name < y.Name {
				return -1
			}
			return 1
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
			s.rateArr[a.idx] = a.bound
		} else {
			s.rateArr[a.idx] = math.Inf(1)
		}
	}
	s.pendingFree = s.pendingFree[:0]
	// BFS closure over the bipartite resource↔activity graph. The seed
	// order and expansion are deterministic, and the set is re-sorted by
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
	slices.SortFunc(set, func(x, y *Activity) int { return x.idx - y.idx })
	if len(set) < s.liveCount {
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
	set := s.set[:0]
	for _, a := range s.active {
		if a != nil {
			set = append(set, a)
		}
	}
	s.dirty = s.dirty[:0]
	s.epoch++
	s.pendingFree = s.pendingFree[:0]
	s.runSolve(set)
	s.set = set[:0]
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
// System's parallel slices so the inner scans are cache-linear; and
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
	unfixed := 0
	for _, a := range set {
		i := a.idx
		s.rateArr[i] = 0
		s.fixedGen[i] = 0
		unfixed++
		if a.bound > 0 {
			bounded = append(bounded, int32(i))
		}
	}
	// Init per-resource state exactly once per solve using generation
	// stamps, then accumulate weights and user lists.
	for _, a := range set {
		for _, ri := range a.uidx {
			if s.resetGen[ri] != gen {
				s.resetGen[ri] = gen
				touched = append(touched, int(ri))
				s.capLeft[ri] = s.resources[ri].Capacity
				s.weightSum[ri] = 0
				s.solveUsers[ri] = s.solveUsers[ri][:0]
			}
		}
	}
	for _, a := range set {
		for j, ri := range a.uidx {
			s.weightSum[ri] += a.usage[j].Weight
			s.solveUsers[ri] = append(s.solveUsers[ri], a)
		}
	}
	s.touched = touched
	s.bounded = bounded

	// fix freezes an activity's rate and removes its weight from its
	// resources.
	fix := func(a *Activity, rate float64) {
		i := a.idx
		s.rateArr[i] = rate
		s.fixedGen[i] = gen
		unfixed--
		for j, ri := range a.uidx {
			w := a.usage[j].Weight
			s.capLeft[ri] -= w * rate
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
			if s.fixedGen[i] != gen && s.boundArr[i] < best {
				best = s.boundArr[i]
				boundLimited = true
			}
		}
		if math.IsInf(best, 1) {
			// No constraints left: remaining activities finish instantly.
			for _, a := range set {
				if s.fixedGen[a.idx] != gen {
					s.rateArr[a.idx] = math.Inf(1)
					s.fixedGen[a.idx] = gen
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
				if s.fixedGen[i] != gen && s.boundArr[i] <= best {
					fix(s.active[i], best)
				}
			}
			continue
		}
		fixedAny := false
		for _, a := range s.solveUsers[bottleneck] {
			if s.fixedGen[a.idx] == gen {
				continue
			}
			fix(a, best)
			fixedAny = true
		}
		if !fixedAny {
			// Defensive: numerically stuck — freeze everything left.
			for _, a := range set {
				if s.fixedGen[a.idx] != gen {
					fix(a, best)
				}
			}
		}
	}
}
