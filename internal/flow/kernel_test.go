package flow

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"simcal/internal/des"
)

// TestBatchPanicReleasesDeferral: Batch used to set inUpdate without a
// defer, so a panicking callback that a caller recovered from (the
// resilience package does exactly that around simulator runs) left the
// system permanently deferring reschedules — every later activity hung
// forever. The deferral must be released on the panic path.
func TestBatchPanicReleasesDeferral(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	r := NewResource("link", 100)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the Batch panic to propagate")
			}
		}()
		sys.Batch(func() {
			sys.StartActivity("pre", 1000, 0, []Usage{{r, 1}}, nil)
			panic("callback exploded")
		})
	}()
	if sys.inUpdate {
		t.Fatal("Batch left the system in deferred-update state after a panic")
	}
	done := false
	sys.StartActivity("post", 100, 0, []Usage{{r, 1}}, func() { done = true })
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("activity started after a recovered Batch panic never completed")
	}
}

// TestCompletionPanicReleasesDeferral is the same regression for the
// completion path: onCompletion suppresses reschedules while it fires
// callbacks, and must release the suppression even when a callback
// panics and the caller recovers and carries on.
func TestCompletionPanicReleasesDeferral(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	r := NewResource("cpu", 100)
	sys.StartActivity("boom", 50, 0, []Usage{{r, 1}}, func() {
		panic("completion callback exploded")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the completion panic to propagate")
			}
		}()
		_, _ = eng.Run(0)
	}()
	if sys.inUpdate {
		t.Fatal("onCompletion left the system in deferred-update state after a panic")
	}
	done := false
	sys.StartActivity("after", 50, 0, []Usage{{r, 1}}, func() { done = true })
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("system stopped scheduling after a recovered completion panic")
	}
}

// TestCompletionWaveCallbackOrder: callbacks of a simultaneous
// completion wave fire in name order, ties between identically named
// activities broken by start order. This pins the contract across the
// replacement of the insertion sort by slices.SortStableFunc.
func TestCompletionWaveCallbackOrder(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	r := NewResource("net", 1000)
	names := []string{"delta", "alpha", "charlie", "alpha", "bravo", "delta", "alpha"}
	var got []string
	sys.Batch(func() {
		for i, n := range names {
			tag := fmt.Sprintf("%s#%d", n, i)
			sys.StartActivity(n, 100, 0, []Usage{{r, 1}}, func() {
				got = append(got, tag)
			})
		}
	})
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha#1", "alpha#3", "alpha#6", "bravo#4", "charlie#2", "delta#0", "delta#5"}
	if len(got) != len(want) {
		t.Fatalf("fired %d callbacks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("callback order %v, want %v", got, want)
		}
	}
}

// TestLargeCompletionWaveOrder runs a wave far past any toy size: 2000
// identically paced activities with names drawn from a small scrambled
// alphabet must still fire sorted by (name, start order).
func TestLargeCompletionWaveOrder(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	r := NewResource("net", 1e6)
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	type fired struct {
		name string
		id   int
	}
	var got []fired
	sys.Batch(func() {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("rank-%02d", rng.Intn(20))
			id := i
			sys.StartActivity(name, 500, 0, []Usage{{r, 1}}, func() {
				got = append(got, fired{name, id})
			})
		}
	})
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("fired %d callbacks, want %d", len(got), n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		if got[i].name != got[j].name {
			return got[i].name < got[j].name
		}
		return got[i].id < got[j].id
	}) {
		t.Fatal("completion wave callbacks not in (name, start-order) order")
	}
}

// TestCancelBeforeFirstSolve cancels activities inside the batch that
// started them — including a no-usage activity, which takes the solver's
// direct-fix path — and checks the survivors still settle correctly.
func TestCancelBeforeFirstSolve(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	r := NewResource("cpu", 100)
	var keep *Activity
	sys.Batch(func() {
		doomed := sys.StartActivity("doomed", 100, 0, []Usage{{r, 1}}, nil)
		free := sys.StartActivity("free", 100, 5, nil, nil)
		keep = sys.StartActivity("keep", 100, 0, []Usage{{r, 1}}, nil)
		doomed.Cancel()
		free.Cancel()
	})
	if got := keep.Rate(); got != 100 {
		t.Fatalf("survivor rate = %g, want full capacity 100", got)
	}
	if got := sys.ActiveCount(); got != 1 {
		t.Fatalf("ActiveCount = %d, want 1", got)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !keep.Done() {
		t.Fatal("surviving activity never completed")
	}
}

// TestChurnCompaction pushes enough start/cancel churn through one
// system to force many active-list and user-list compactions, checks
// after every cancel that neither list holds more than 2·live+1 entries,
// then verifies the survivors' state is intact.
func TestChurnCompaction(t *testing.T) {
	eng := des.NewEngine()
	sys := NewSystem(eng)
	r := NewResource("disk", 1000)
	var survivors []*Activity
	for round := 0; round < 40; round++ {
		var batch []*Activity
		sys.Batch(func() {
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("t%d-%d", round, i)
				batch = append(batch, sys.StartActivity(name, 1e6, 0, []Usage{{r, 1}}, nil))
			}
		})
		for i, a := range batch {
			if i%10 != 0 {
				a.Cancel()
			} else {
				survivors = append(survivors, a)
			}
			live := sys.ActiveCount()
			if len(sys.active) > 2*live+1 || len(sys.users[0]) > 2*live+1 {
				t.Fatalf("round %d: active list %d slots, user list %d refs for %d live activities",
					round, len(sys.active), len(sys.users[0]), live)
			}
		}
	}
	if got, want := sys.ActiveCount(), len(survivors); got != want {
		t.Fatalf("ActiveCount = %d, want %d survivors", got, want)
	}
	// 200 equal-weight survivors on a 1000-unit resource: 5 each.
	for _, a := range survivors {
		if got := a.Rate(); got != 5 {
			t.Fatalf("survivor %s rate = %g, want 5", a.Name, got)
		}
	}
}
