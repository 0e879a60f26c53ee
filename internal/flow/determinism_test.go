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
	if _, err := eng.Run(1e12); err != nil {
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

// driveRandomKernel runs a seeded random schedule of activity arrivals,
// cancellations, and completions over a shared resource pool and records
// a dense trace of every observable the kernel produces: completion
// times as they fire, plus the clock, rate, and remaining work of every
// live activity after each driver action. With full=true the incremental
// solver is disabled and every reschedule re-solves all live activities.
func driveRandomKernel(seed int64, full bool) (trace []float64, incSolves int) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	sys.forceFullSolve = full
	return driveKernel(eng, sys, seed, 0)
}

// driveKernel is driveRandomKernel on a given engine and system, which a
// reuse test may have run (and Reset) before. maxEvents > 0 stops the
// run at that many fired events, leaving the kernel mid-flight.
func driveKernel(eng *des.Engine, sys *System, seed int64, maxEvents int) (trace []float64, incSolves int) {
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
	id := 0
	at := 0.0
	for step := 0; step < 80; step++ {
		at += 0.1 + rng.Float64()
		eng.At(at, func() {
			prune()
			if len(live) > 0 && rng.Intn(4) == 0 {
				live[rng.Intn(len(live))].Cancel()
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
						sys.StartActivity(fmt.Sprintf("act-%03d", id),
							rng.Float64()*40, bound, usage,
							func() { trace = append(trace, eng.Now()) })
					}
				})
			}
			prune()
			trace = append(trace, eng.Now(), float64(len(live)))
			for _, a := range live {
				trace = append(trace, a.Rate(), a.Remaining())
			}
		})
	}
	if _, err := eng.Run(maxEvents); err != nil && maxEvents == 0 {
		panic(err)
	}
	trace = append(trace, eng.Now())
	return trace, sys.statIncremens
}

// driveChurnKernel is a workflow-simulator-shaped schedule: each of 16
// hosts owns a CPU, a disk and a link, so the resource↔activity graph is
// many small components, and runs chains of tasks — stage in over its
// link to its disk, compute, write back — whose every phase is started
// by the completion callback of the one before, interleaving starts with
// completions the way wfsim does. One task in eight stages in from a
// neighbour's disk, briefly joining two components. Each completion
// records the clock and every live activity's rate and remaining work,
// and checks the compaction bound: no list holds more than 2·live+1
// entries, so with one or two users per resource list nearly every
// removal compacts.
func driveChurnKernel(t *testing.T, seed int64, full bool) (trace []float64, incSolves int) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
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
		trace = append(trace, eng.Now(), float64(len(live)))
		for _, a := range live {
			trace = append(trace, a.Rate(), a.Remaining())
		}
	}
	id := 0
	start := func(work, bound float64, usage []Usage, next func()) {
		id++
		live = append(live, sys.StartActivity(fmt.Sprintf("t%04d", id), work, bound, usage, func() {
			observe()
			next()
		}))
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
		start(in, 0, stageIn, func() {
			start(ops, bound, []Usage{{cpu[h], 1}}, func() {
				start(out, 0, []Usage{{disk[h], 1}}, func() { task(h, left-1) })
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
	return trace, sys.statIncremens
}

// TestIncrementalSolveMatchesFullSolveBitwise is the contract the
// incremental solver rests on: re-solving only the dirty connected
// component must produce trajectories bitwise identical — every rate,
// every remaining-work value, every completion timestamp — to re-solving
// the whole system on every change, across randomized arrival, cancel,
// and completion sequences and across workflow-shaped churn.
func TestIncrementalSolveMatchesFullSolveBitwise(t *testing.T) {
	cases := []struct {
		name  string
		drive func(seed int64, full bool) ([]float64, int)
	}{
		{"random", driveRandomKernel},
		{"churn", func(seed int64, full bool) ([]float64, int) { return driveChurnKernel(t, seed, full) }},
	}
	for _, d := range cases {
		totalInc := 0
		for seed := int64(1); seed <= 8; seed++ {
			inc, nInc := d.drive(seed, false)
			full, _ := d.drive(seed, true)
			if len(inc) != len(full) {
				t.Fatalf("%s seed %d: trace lengths diverged: incremental %d vs full %d", d.name, seed, len(inc), len(full))
			}
			for i := range inc {
				if math.Float64bits(inc[i]) != math.Float64bits(full[i]) {
					t.Fatalf("%s seed %d: trace[%d] = %v (incremental) vs %v (full): bitwise divergence",
						d.name, seed, i, inc[i], full[i])
				}
			}
			totalInc += nInc
		}
		if totalInc == 0 {
			t.Fatalf("%s: no incremental (partial-set) solves occurred: the property test exercised nothing", d.name)
		}
	}
}
