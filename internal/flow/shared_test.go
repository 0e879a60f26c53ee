package flow

import (
	"fmt"
	"math"
	"testing"

	"simcal/internal/des"
)

// sharedWave starts one activity per entry of order on a batch — each
// using res[order[k]] and the next entry's resource, so resources
// register in order's order — and appends each activity's first rate and
// its completion time to rec. It runs the engine dry, or when until > 0
// only to until, leaving activities live on the resources.
func sharedWave(t *testing.T, eng *des.Engine, sys *System, res []*Resource, order []int, until float64, rec *[]float64) {
	t.Helper()
	acts := make([]*Activity, len(order))
	sys.Batch(func() {
		for k, i := range order {
			usage := []Usage{{res[i], 1 + float64(k)*0.3}, {res[order[(k+1)%len(order)]], 1.7}}
			acts[k] = sys.StartActivity(fmt.Sprintf("w%d", k), 50+float64(k)*7.1, 0, usage,
				func() { *rec = append(*rec, eng.Now()) })
		}
	})
	for _, a := range acts {
		*rec = append(*rec, a.Rate())
	}
	if until > 0 {
		if eng.RunUntil(until); sys.ActiveCount() == 0 {
			t.Fatal("setup: the interrupted wave finished")
		}
	} else if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestResourceSharedBySystemsInTurn: resources used by two systems in
// turn — each continuing a simulation it interrupted, with activities
// still live on them, after the other has used them, and again after
// Reset, in a new registration order each time — give every rate and
// completion time bit for bit as when each system has resources of its
// own. A resource's index stamp must be neither taken from the other
// system nor kept across a Reset, and a system must find the index it
// gave a resource again once the other has stamped it.
func TestResourceSharedBySystemsInTurn(t *testing.T) {
	newRes := func() []*Resource {
		return []*Resource{NewResource("r0", 100), NewResource("r1", 61.7), NewResource("r2", 43.1), NewResource("r3", 29.9)}
	}
	p1, p2, p3 := []int{0, 1, 2, 3}, []int{3, 2, 1, 0}, []int{2, 0, 3, 1}
	play := func(resA, resB []*Resource) (recA, recB []float64) {
		engA, engB := des.NewEngine(), des.NewEngine()
		sysA, sysB := NewSystem(engA), NewSystem(engB)
		sharedWave(t, engA, sysA, resA, p1, 0.5, &recA)
		sharedWave(t, engB, sysB, resB, p2, 0.7, &recB)
		sharedWave(t, engA, sysA, resA, p3, 0, &recA) // same simulation, stamps now sysB's
		sharedWave(t, engB, sysB, resB, p1, 0, &recB)
		for _, order := range [][]int{p2, p3, p1} {
			engA.Reset()
			sysA.Reset()
			sharedWave(t, engA, sysA, resA, order, 0, &recA) // stamps sysA's, a generation old
		}
		engB.Reset()
		sysB.Reset()
		sharedWave(t, engB, sysB, resB, p3, 0, &recB)
		return recA, recB
	}
	shared := newRes()
	gotA, gotB := play(shared, shared)
	wantA, wantB := play(newRes(), newRes())
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"A", gotA, wantA}, {"B", gotB, wantB}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("system %s: %d records shared vs %d separate", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Errorf("system %s: record %d = %v shared vs %v separate", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
