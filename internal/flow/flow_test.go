package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"simcal/internal/des"
)

func run(t *testing.T, eng *des.Engine) float64 {
	t.Helper()
	end, err := eng.Run(100000)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return end
}

func TestSingleActivityOnResource(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 100) // 100 units/s
	var doneAt float64 = -1
	sys.StartActivity("xfer", 1000, 0, []Usage{{link, 1}}, func() { doneAt = eng.Now() })
	run(t, eng)
	if math.Abs(doneAt-10) > 1e-9 {
		t.Errorf("completion at %v, want 10", doneAt)
	}
}

func TestFairSharingTwoActivities(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 100)
	var t1, t2 float64
	sys.StartActivity("a", 1000, 0, []Usage{{link, 1}}, func() { t1 = eng.Now() })
	sys.StartActivity("b", 1000, 0, []Usage{{link, 1}}, func() { t2 = eng.Now() })
	run(t, eng)
	// Each gets 50 units/s → both complete at t=20.
	if math.Abs(t1-20) > 1e-9 || math.Abs(t2-20) > 1e-9 {
		t.Errorf("completions at %v, %v, want 20, 20", t1, t2)
	}
}

func TestRateReallocationAfterCompletion(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 100)
	var tShort, tLong float64
	sys.StartActivity("short", 500, 0, []Usage{{link, 1}}, func() { tShort = eng.Now() })
	sys.StartActivity("long", 1000, 0, []Usage{{link, 1}}, func() { tLong = eng.Now() })
	run(t, eng)
	// Both at 50/s until t=10 when short (500) finishes; long has 500 left
	// and now runs at 100/s → finishes at t=15.
	if math.Abs(tShort-10) > 1e-9 {
		t.Errorf("short done at %v, want 10", tShort)
	}
	if math.Abs(tLong-15) > 1e-9 {
		t.Errorf("long done at %v, want 15", tLong)
	}
}

func TestRateBound(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 100)
	var tA, tB float64
	// A is bounded at 20/s; B takes the rest (80/s).
	sys.StartActivity("a", 200, 20, []Usage{{link, 1}}, func() { tA = eng.Now() })
	sys.StartActivity("b", 800, 0, []Usage{{link, 1}}, func() { tB = eng.Now() })
	run(t, eng)
	if math.Abs(tA-10) > 1e-9 {
		t.Errorf("bounded activity done at %v, want 10", tA)
	}
	if math.Abs(tB-10) > 1e-9 {
		t.Errorf("unbounded activity done at %v, want 10", tB)
	}
}

func TestMultiResourceBottleneck(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	fast := NewResource("fast", 1000)
	slow := NewResource("slow", 10)
	var done float64
	// A route crossing both links is limited by the slow one.
	sys.StartActivity("xfer", 100, 0, []Usage{{fast, 1}, {slow, 1}}, func() { done = eng.Now() })
	run(t, eng)
	if math.Abs(done-10) > 1e-9 {
		t.Errorf("done at %v, want 10", done)
	}
}

func TestMaxMinThreeFlowsSharedAndPrivate(t *testing.T) {
	// Classic max-min example: flow0 crosses links L1 and L2; flow1 uses
	// L1 only; flow2 uses L2 only. C(L1)=C(L2)=1. Max-min: all get 0.5.
	eng := des.NewEngine()
	sys := NewSystem(eng)
	l1 := NewResource("l1", 1)
	l2 := NewResource("l2", 1)
	a0 := sys.StartActivity("f0", 100, 0, []Usage{{l1, 1}, {l2, 1}}, nil)
	a1 := sys.StartActivity("f1", 100, 0, []Usage{{l1, 1}}, nil)
	a2 := sys.StartActivity("f2", 100, 0, []Usage{{l2, 1}}, nil)
	sys.solve()
	for _, a := range []*Activity{a0, a1, a2} {
		if math.Abs(a.Rate()-0.5) > 1e-9 {
			t.Errorf("%s rate = %v, want 0.5", a.Name, a.Rate())
		}
	}
}

func TestMaxMinAsymmetric(t *testing.T) {
	// L1 cap 1 with flows f0 (L1+L2) and f1 (L1); L2 cap 10 with f0 and
	// f2 (L2 only). Progressive filling: L1 saturates first at share 0.5
	// → f0=f1=0.5; then f2 gets remaining 9.5 on L2.
	eng := des.NewEngine()
	sys := NewSystem(eng)
	l1 := NewResource("l1", 1)
	l2 := NewResource("l2", 10)
	a0 := sys.StartActivity("f0", 100, 0, []Usage{{l1, 1}, {l2, 1}}, nil)
	a1 := sys.StartActivity("f1", 100, 0, []Usage{{l1, 1}}, nil)
	a2 := sys.StartActivity("f2", 100, 0, []Usage{{l2, 1}}, nil)
	sys.solve()
	if math.Abs(a0.Rate()-0.5) > 1e-9 || math.Abs(a1.Rate()-0.5) > 1e-9 {
		t.Errorf("f0,f1 rates = %v,%v, want 0.5", a0.Rate(), a1.Rate())
	}
	if math.Abs(a2.Rate()-9.5) > 1e-9 {
		t.Errorf("f2 rate = %v, want 9.5", a2.Rate())
	}
}

func TestWeightedUsage(t *testing.T) {
	// An activity with weight 2 consumes twice its rate; two such flows
	// on a cap-100 link each run at 25 when sharing with two weight-1
	// flows... keep it simple: one weight-2 flow alone runs at 50.
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 100)
	a := sys.StartActivity("heavy", 100, 0, []Usage{{link, 2}}, nil)
	sys.solve()
	if math.Abs(a.Rate()-50) > 1e-9 {
		t.Errorf("weighted rate = %v, want 50", a.Rate())
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 100)
	var done float64 = -1
	sys.StartActivity("empty", 0, 0, []Usage{{link, 1}}, func() { done = eng.Now() })
	run(t, eng)
	if done != 0 {
		t.Errorf("zero-work activity done at %v, want 0", done)
	}
}

func TestNoResourceNoBoundCompletesImmediately(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	var done float64 = -1
	sys.StartActivity("free", 42, 0, nil, func() { done = eng.Now() })
	run(t, eng)
	if done != 0 {
		t.Errorf("unconstrained activity done at %v, want 0", done)
	}
}

func TestBoundOnlyActivity(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	var done float64
	sys.StartActivity("capped", 100, 10, nil, func() { done = eng.Now() })
	run(t, eng)
	if math.Abs(done-10) > 1e-9 {
		t.Errorf("bound-only activity done at %v, want 10", done)
	}
}

func TestCancelActivity(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 100)
	var canceledFired bool
	var otherDone float64
	a := sys.StartActivity("victim", 1000, 0, []Usage{{link, 1}}, func() { canceledFired = true })
	sys.StartActivity("other", 1000, 0, []Usage{{link, 1}}, func() { otherDone = eng.Now() })
	eng.After(5, func() { a.Cancel() })
	run(t, eng)
	if canceledFired {
		t.Error("canceled activity fired its callback")
	}
	// other: 50/s for 5s (250 done), then 100/s for remaining 750 → 7.5s more.
	if math.Abs(otherDone-12.5) > 1e-9 {
		t.Errorf("other done at %v, want 12.5", otherDone)
	}
	if !a.canceled || a.Done() {
		t.Error("cancel state wrong")
	}
}

func TestChainedActivitiesFromCallback(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 10)
	var done float64
	sys.StartActivity("first", 100, 0, []Usage{{link, 1}}, func() {
		sys.StartActivity("second", 100, 0, []Usage{{link, 1}}, func() { done = eng.Now() })
	})
	run(t, eng)
	if math.Abs(done-20) > 1e-9 {
		t.Errorf("chained completion at %v, want 20", done)
	}
}

func TestDeterministicCallbackOrder(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		eng := des.NewEngine()
		sys := NewSystem(eng)
		link := NewResource("link", 100)
		var order []string
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("act-%d", i)
			n := name
			sys.StartActivity(name, 100, 0, []Usage{{link, 1}}, func() { order = append(order, n) })
		}
		run(t, eng)
		for i, n := range order {
			if n != fmt.Sprintf("act-%d", i) {
				t.Fatalf("trial %d: callbacks out of order: %v", trial, order)
			}
		}
	}
}

func TestBatchStartsActivitiesTogether(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 100)
	var acts []*Activity
	sys.Batch(func() {
		for i := 0; i < 4; i++ {
			acts = append(acts, sys.StartActivity(fmt.Sprintf("b%d", i), 100, 0, []Usage{{link, 1}}, nil))
		}
	})
	// After the batch, all rates must reflect 4-way sharing.
	for _, a := range acts {
		if math.Abs(a.Rate()-25) > 1e-9 {
			t.Errorf("%s rate = %v, want 25", a.Name, a.Rate())
		}
	}
	run(t, eng)
}

func TestNestedBatchFlattens(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 100)
	var done int
	sys.Batch(func() {
		sys.Batch(func() {
			sys.StartActivity("inner", 50, 0, []Usage{{link, 1}}, func() { done++ })
		})
		sys.StartActivity("outer", 50, 0, []Usage{{link, 1}}, func() { done++ })
	})
	run(t, eng)
	if done != 2 {
		t.Errorf("completed %d activities, want 2", done)
	}
}

func TestActiveCount(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	link := NewResource("link", 1)
	sys.StartActivity("a", 10, 0, []Usage{{link, 1}}, nil)
	sys.StartActivity("b", 10, 0, []Usage{{link, 1}}, nil)
	if sys.ActiveCount() != 2 {
		t.Errorf("ActiveCount = %d, want 2", sys.ActiveCount())
	}
	run(t, eng)
	if sys.ActiveCount() != 0 {
		t.Errorf("ActiveCount after run = %d, want 0", sys.ActiveCount())
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	cases := []func(){
		func() { NewResource("bad", -1) },
		func() { sys.StartActivity("neg", -5, 0, nil, nil) },
		func() { sys.StartActivity("negbound", 5, -1, nil, nil) },
		func() { sys.StartActivity("badusage", 5, 0, []Usage{{nil, 1}}, nil) },
		func() { sys.StartActivity("badweight", 5, 0, []Usage{{NewResource("r", 1), 0}}, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: total allocated rate on a single shared resource never
// exceeds capacity and is work-conserving (equals capacity when any
// unbounded activity is present).
func TestCapacityConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		eng := des.NewEngine()
		sys := NewSystem(eng)
		cap := 100.0
		link := NewResource("link", cap)
		n := 1 + int(uint64(seed)%7)
		acts := make([]*Activity, n)
		hasUnbounded := false
		for i := range acts {
			bound := 0.0
			if (seed>>uint(i))&1 == 1 {
				bound = 5 + float64(i)
			} else {
				hasUnbounded = true
			}
			acts[i] = sys.StartActivity(fmt.Sprintf("a%d", i), 1000, bound, []Usage{{link, 1}}, nil)
		}
		sys.solve()
		total := 0.0
		for _, a := range acts {
			if a.Rate() < -1e-12 {
				return false
			}
			total += a.Rate()
		}
		if total > cap+1e-6 {
			return false
		}
		if hasUnbounded && math.Abs(total-cap) > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: completion time of a single activity equals work/min(caps,bound).
func TestSingleActivityTimeProperty(t *testing.T) {
	f := func(w, c, b uint8) bool {
		work := float64(w%100) + 1
		capacity := float64(c%100) + 1
		bound := float64(b%100) + 1
		eng := des.NewEngine()
		sys := NewSystem(eng)
		link := NewResource("link", capacity)
		var done float64 = -1
		sys.StartActivity("a", work, bound, []Usage{{link, 1}}, func() { done = eng.Now() })
		eng.Run(1000)
		expect := work / math.Min(capacity, bound)
		return math.Abs(done-expect) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
