package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"simcal/internal/des"
)

// irregularSolve sets up a contended system whose max-min solution is
// full of irrational shares (irregular weights and capacities), runs it
// to completion, and returns every activity's first allocated rate plus
// its completion time. Any dependence of the solver on map iteration
// order shows up here as last-ULP differences between invocations.
func irregularSolve() (rates, doneAt []float64) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	res := make([]*Resource, 5)
	for i := range res {
		res[i] = NewResource(fmt.Sprintf("r%d", i), 100+float64(i)*17.3)
	}
	const n = 40
	rates = make([]float64, n)
	doneAt = make([]float64, n)
	acts := make([]*Activity, n)
	sys.Batch(func() {
		for i := 0; i < n; i++ {
			i := i
			usage := []Usage{
				{res[i%5], 1 + float64(i%3)*0.7},
				{res[(i*7+2)%5], 1.3},
			}
			var bound float64
			if i%4 == 0 {
				bound = 3.1 + float64(i)/13
			}
			acts[i] = sys.StartActivity(fmt.Sprintf("a%02d", i),
				1000+float64(i)*3.77, bound, usage,
				func() { doneAt[i] = eng.Now() })
		}
	})
	for i, a := range acts {
		rates[i] = a.Rate()
	}
	if _, err := eng.Run(0); err != nil {
		panic(err)
	}
	return rates, doneAt
}

// TestSolveBitwiseRepeatable: the max-min solver must produce bitwise
// identical rates and completion times on every run — the foundation of
// the repo-wide guarantee that serial, parallel, resumed, and
// distributed calibrations of the same seed are byte-identical. (The
// active set once lived in a pointer-keyed map; iterating it made
// weight sums accumulate in address order, which varied per process.)
func TestSolveBitwiseRepeatable(t *testing.T) {
	r1, d1 := irregularSolve()
	for trial := 0; trial < 10; trial++ {
		r2, d2 := irregularSolve()
		for i := range r1 {
			if math.Float64bits(r1[i]) != math.Float64bits(r2[i]) {
				t.Fatalf("trial %d: rate[%d] = %v vs %v (differs in last ULPs)", trial, i, r1[i], r2[i])
			}
			if math.Float64bits(d1[i]) != math.Float64bits(d2[i]) {
				t.Fatalf("trial %d: doneAt[%d] = %v vs %v", trial, i, d1[i], d2[i])
			}
		}
	}
}

// probe is what a kernel driver reads between events.
type probe int

const (
	// probeTrace records the clock and every live activity's rate and
	// remaining work after each driver action (and, in the churn driver,
	// at each completion).
	probeTrace probe = iota
	// probeEager reads a live activity's Rate() right after every start
	// and cancel (after the Batch, for batched starts), which runs each
	// change's solve at once: the solve sequence of a kernel that solved
	// at every change instead of once per instant.
	probeEager
	// probeNone reads nothing between events.
	probeNone
)

// driveRandomKernel runs a seeded random schedule of activity arrivals,
// cancellations, and completions over a shared resource pool and records
// a dense trace of every observable the kernel produces: each completion
// (activity, time and final rate) as it fires, each canceled activity's
// final rate and, under probeTrace, the clock, rate, and remaining work
// of every live activity after each driver action. Some cancels happen
// inside a batch of starts, and one driver action in two shares the
// instant of the one before. With full=true the incremental solver is
// disabled and every solve re-solves all live activities.
func driveRandomKernel(seed int64, full bool, p probe) (trace []float64, sys *System) {
	eng := des.NewEngine()
	sys = NewSystem(eng)
	sys.forceFullSolve = full
	return driveKernel(eng, sys, seed, 0, p), sys
}

// driveKernel is driveRandomKernel on a given engine and system, which a
// reuse test may have run (and Reset) before. maxEvents > 0 stops the
// run at that many fired events, leaving the kernel mid-flight.
func driveKernel(eng *des.Engine, sys *System, seed int64, maxEvents int, p probe) (trace []float64) {
	rng := rand.New(rand.NewSource(seed))
	res := make([]*Resource, 8)
	for i := range res {
		res[i] = NewResource(fmt.Sprintf("r%d", i), 50+rng.Float64()*100)
	}
	var live []*Activity
	prune := func() {
		kept := live[:0]
		for _, a := range live {
			if !a.done && !a.canceled {
				kept = append(kept, a)
			}
		}
		live = kept
	}
	cancel := func() {
		a := live[rng.Intn(len(live))]
		if !a.canceled {
			a.Cancel()
			trace = append(trace, a.Rate())
		}
	}
	id := 0
	at := 0.0
	for step := 0; step < 80; step++ {
		if step == 0 || rng.Intn(2) > 0 {
			at += 0.1 + rng.Float64()
		}
		eng.At(at, func() {
			prune()
			if len(live) > 0 && rng.Intn(4) == 0 {
				cancel()
			} else {
				n := 1 + rng.Intn(5)
				sys.Batch(func() {
					for i := 0; i < n; i++ {
						nres := rng.Intn(4) // 0 usages sometimes: the direct-fix path
						usage := make([]Usage, 0, nres)
						seen := make(map[int]bool, nres)
						for len(usage) < nres {
							ri := rng.Intn(len(res))
							if seen[ri] {
								continue
							}
							seen[ri] = true
							usage = append(usage, Usage{res[ri], 0.5 + rng.Float64()*2})
						}
						var bound float64
						if rng.Intn(2) == 0 {
							bound = 1 + rng.Float64()*20
						}
						id++
						var a *Activity
						aid := float64(id)
						a = sys.StartActivity(fmt.Sprintf("act-%03d", id),
							rng.Float64()*40, bound, usage,
							func() { trace = append(trace, aid, eng.Now(), a.Rate()) })
						live = append(live, a)
					}
					if rng.Intn(3) == 0 {
						cancel()
					}
				})
			}
			prune()
			switch p {
			case probeTrace:
				trace = append(trace, eng.Now(), float64(len(live)))
				for _, a := range live {
					trace = append(trace, a.Rate(), a.Remaining())
				}
			case probeEager:
				if len(live) > 0 {
					live[0].Rate()
				}
			}
		})
	}
	if _, err := eng.Run(maxEvents); err != nil && maxEvents == 0 {
		panic(err)
	}
	trace = append(trace, eng.Now())
	return trace
}

// driveChurnKernel is a workflow-simulator-shaped schedule: each of 16
// hosts owns a CPU, a disk and a link, so the resource↔activity graph is
// many small components, and runs chains of tasks — stage in over its
// link to its disk, compute, write back. Compute and write-back are
// started by the completion callback of the phase before, interleaving
// starts with completions the way wfsim does; a stage-in starts from an
// event of its own at the same instant, the way a transfer starts after
// its route latency, so the starts released by one instant land outside
// any batch. One task in eight stages in from a neighbour's disk,
// briefly joining two components. Each completion records the activity,
// the clock and its final rate — under probeTrace also every live
// activity's rate and remaining work — and checks the compaction bound:
// no list holds more than 2·live+1 entries, so with one or two users per
// resource list nearly every removal compacts.
func driveChurnKernel(t *testing.T, seed int64, full bool, p probe) (trace []float64, sys *System) {
	eng := des.NewEngine()
	sys = NewSystem(eng)
	sys.forceFullSolve = full
	rng := rand.New(rand.NewSource(seed))
	const hosts = 16
	cpu := make([]*Resource, hosts)
	disk := make([]*Resource, hosts)
	link := make([]*Resource, hosts)
	for h := range cpu {
		cpu[h] = NewResource(fmt.Sprintf("cpu%d", h), 50+rng.Float64()*100)
		disk[h] = NewResource(fmt.Sprintf("disk%d", h), 80+rng.Float64()*40)
		link[h] = NewResource(fmt.Sprintf("link%d", h), 20+rng.Float64()*60)
	}
	var live []*Activity
	checkBound := func() {
		if len(sys.active) > 2*sys.liveCount+1 {
			t.Fatalf("seed %d: active list holds %d slots for %d live activities", seed, len(sys.active), sys.liveCount)
		}
		for ri, refs := range sys.users {
			if n := len(refs); n > 2*(n-sys.userDead[ri])+1 {
				t.Fatalf("seed %d: user list %d holds %d refs, %d dead", seed, ri, n, sys.userDead[ri])
			}
		}
	}
	observe := func() {
		checkBound()
		kept := live[:0]
		for _, a := range live {
			if !a.done {
				kept = append(kept, a)
			}
		}
		live = kept
		if p != probeTrace {
			return
		}
		trace = append(trace, eng.Now(), float64(len(live)))
		for _, a := range live {
			trace = append(trace, a.Rate(), a.Remaining())
		}
	}
	id := 0
	start := func(work, bound float64, usage []Usage, next func()) {
		id++
		var a *Activity
		aid := float64(id)
		a = sys.StartActivity(fmt.Sprintf("t%04d", id), work, bound, usage, func() {
			trace = append(trace, aid, eng.Now(), a.Rate())
			observe()
			next()
		})
		live = append(live, a)
		if p == probeEager {
			a.Rate()
		}
	}
	var task func(h, left int)
	task = func(h, left int) {
		if left == 0 {
			return
		}
		src := h
		if rng.Intn(8) == 0 {
			src = (h + 1) % hosts
		}
		stageIn := []Usage{{disk[src], 1}, {link[src], 1}}
		if src != h {
			stageIn = append(stageIn, Usage{link[h], 1}, Usage{disk[h], 1})
		}
		var bound float64
		if rng.Intn(2) == 0 {
			bound = 10 + rng.Float64()*40
		}
		ops, in, out := 1+rng.Float64()*400, rng.Float64()*200, rng.Float64()*100
		eng.After(0, func() {
			start(in, 0, stageIn, func() {
				start(ops, bound, []Usage{{cpu[h], 1}}, func() {
					start(out, 0, []Usage{{disk[h], 1}}, func() { task(h, left-1) })
				})
			})
		})
	}
	sys.Batch(func() {
		for h := 0; h < hosts; h++ {
			for slot := 1 + rng.Intn(2); slot > 0; slot-- {
				task(h, 12)
			}
		}
	})
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	checkBound()
	trace = append(trace, eng.Now(), float64(sys.ActiveCount()))
	return trace, sys
}

// kernelDriver is a seeded schedule the kernel property tests run.
type kernelDriver struct {
	name  string
	drive func(seed int64, full bool, p probe) ([]float64, *System)
}

func kernelDrivers(t *testing.T) []kernelDriver {
	return []kernelDriver{
		{"random", driveRandomKernel},
		{"churn", func(seed int64, full bool, p probe) ([]float64, *System) {
			return driveChurnKernel(t, seed, full, p)
		}},
	}
}

// sameBits fails t unless traces a and b are bitwise identical.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: trace lengths diverged: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: trace[%d] = %v vs %v: bitwise divergence", what, i, a[i], b[i])
		}
	}
}

// TestIncrementalSolveMatchesFullSolveBitwise is the contract the
// incremental solver rests on: re-solving only the dirty connected
// component must produce trajectories bitwise identical — every rate,
// every remaining-work value, every completion timestamp — to re-solving
// the whole system on every change, across randomized arrival, cancel,
// and completion sequences and across workflow-shaped churn.
func TestIncrementalSolveMatchesFullSolveBitwise(t *testing.T) {
	for _, d := range kernelDrivers(t) {
		totalInc := 0
		for seed := int64(1); seed <= 8; seed++ {
			inc, sys := d.drive(seed, false, probeTrace)
			full, _ := d.drive(seed, true, probeTrace)
			sameBits(t, fmt.Sprintf("%s seed %d: incremental vs full", d.name, seed), inc, full)
			totalInc += sys.statIncremens
		}
		if totalInc == 0 {
			t.Fatalf("%s: no incremental (partial-set) solves occurred: the property test exercised nothing", d.name)
		}
	}
}

// TestDeferredSolveMatchesEager is the contract of the end-of-instant
// solve: a run that reads nothing between events, and so solves once per
// instant, completes the same activities in the same order at the same
// timestamps with the same final rates — bit for bit — as a run whose
// Rate() reads after every start and cancel solve each change at once,
// and the churn driver, whose stage-ins start together, solves strictly
// less often. The reads of probeTrace would force the second sequence,
// so neither run here makes them.
func TestDeferredSolveMatchesEager(t *testing.T) {
	for _, d := range kernelDrivers(t) {
		for seed := int64(1); seed <= 8; seed++ {
			eager, eagerSys := d.drive(seed, false, probeEager)
			deferred, deferredSys := d.drive(seed, false, probeNone)
			sameBits(t, fmt.Sprintf("%s seed %d: deferred vs eager", d.name, seed), deferred, eager)
			es, _, _ := eagerSys.Stats()
			ds, _, _ := deferredSys.Stats()
			if ds > es || d.name == "churn" && ds >= es {
				t.Fatalf("%s seed %d: %d solves deferred, %d eager", d.name, seed, ds, es)
			}
		}
	}
}
