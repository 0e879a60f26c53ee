package flow

import (
	"math"
	"testing"

	"simcal/internal/des"
)

// TestResetEqualsFreshBitwise: a kernel that has already run other
// simulations — some to completion, some cut off mid-flight with
// activities live, resources registered and a completion event queued —
// replays a simulation after Reset with every observable bit-identical
// to a fresh kernel's.
func TestResetEqualsFreshBitwise(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	for seed := int64(1); seed <= 8; seed++ {
		maxEvents := 0
		if seed%2 == 0 {
			maxEvents = 30 + int(seed)
		}
		driveKernel(eng, sys, 100+seed, maxEvents) // leave another run's state behind
		eng.Reset()
		sys.Reset()
		if eng.Now() != 0 || eng.Pending() != 0 || eng.Fired() != 0 || sys.ActiveCount() != 0 {
			t.Fatalf("seed %d: after Reset now=%v pending=%d fired=%d active=%d",
				seed, eng.Now(), eng.Pending(), eng.Fired(), sys.ActiveCount())
		}
		reused, _ := driveKernel(eng, sys, seed, 0)
		fresh, _ := driveRandomKernel(seed, false)
		if len(reused) != len(fresh) {
			t.Fatalf("seed %d: trace lengths diverged: reused %d vs fresh %d", seed, len(reused), len(fresh))
		}
		for i := range reused {
			if math.Float64bits(reused[i]) != math.Float64bits(fresh[i]) {
				t.Fatalf("seed %d: trace[%d] = %v (reused) vs %v (fresh)", seed, i, reused[i], fresh[i])
			}
		}
		if solves, _, _ := sys.Stats(); solves == 0 {
			t.Fatal("no solves counted on the reused system")
		}
		eng.Reset()
		sys.Reset()
	}
}

// TestResetRecyclesKernelMemory: after one warm-up simulation the same
// simulation on the Reset kernel allocates nothing — activities, their
// index backing, per-resource user lists and solver scratch all come
// from the previous run.
func TestResetRecyclesKernelMemory(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	res := []*Resource{NewResource("a", 100), NewResource("b", 60), NewResource("c", 30)}
	usages := [][]Usage{
		{{res[0], 1}},
		{{res[0], 1}, {res[1], 2}},
		{{res[1], 1}, {res[2], 1}},
		nil,
	}
	names := []string{"w", "x", "y", "z"}
	var chain func()
	left := 0
	chain = func() {
		if left > 0 {
			left--
			sys.StartActivity(names[left%4], float64(10+left), 0, usages[left%4], chain)
		}
	}
	simulate := func() {
		eng.Reset()
		sys.Reset()
		left = 600
		sys.Batch(func() {
			for i := 0; i < 40; i++ {
				chain()
			}
		})
		if _, err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	simulate()
	if allocs := testing.AllocsPerRun(10, simulate); allocs != 0 {
		t.Errorf("simulation on a warmed, Reset kernel allocates %v times, want 0", allocs)
	}
}
