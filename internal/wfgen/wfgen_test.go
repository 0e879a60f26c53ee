package wfgen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTable1SizesGenerateExactly(t *testing.T) {
	for app, spec := range Table1 {
		for _, n := range spec.Sizes {
			w := Generate(Spec{App: app, Tasks: n, WorkSeconds: 1, FootprintBytes: 1500 * MB})
			if w.Size() != n {
				t.Errorf("%s size %d: generated %d tasks", app, n, w.Size())
			}
			if err := w.Validate(); err != nil {
				t.Errorf("%s size %d: invalid: %v", app, n, err)
			}
		}
	}
}

func TestWorkMatchesSpec(t *testing.T) {
	spec := Spec{App: Montage, Tasks: 60, WorkSeconds: 1.12, FootprintBytes: 0}
	w := Generate(spec)
	for _, task := range w.Tasks {
		if task.Work != 1.12*RefCoreSpeed {
			t.Fatalf("task work = %v, want %v", task.Work, 1.12*RefCoreSpeed)
		}
	}
	wantTotal := 1.12 * RefCoreSpeed * 60
	if math.Abs(w.TotalWork()-wantTotal) > 1 {
		t.Errorf("total work = %v, want %v", w.TotalWork(), wantTotal)
	}
}

func TestFootprintMatchesSpec(t *testing.T) {
	for _, fp := range []float64{0, 150 * MB, 1500 * MB, 15000 * MB} {
		w := Generate(Spec{App: Epigenomics, Tasks: 43, WorkSeconds: 1, FootprintBytes: fp})
		got := w.DataFootprint()
		if math.Abs(got-fp) > 1e-3*math.Max(fp, 1) {
			t.Errorf("footprint %v: generated %v", fp, got)
		}
	}
}

func TestChainIsLinear(t *testing.T) {
	w := Generate(Spec{App: Chain, Tasks: 10, WorkSeconds: 1, FootprintBytes: 0})
	if len(w.Roots()) != 1 {
		t.Fatalf("chain has %d roots, want 1", len(w.Roots()))
	}
	for _, task := range w.Tasks {
		if len(task.Children) > 1 || len(task.Parents) > 1 {
			t.Fatalf("chain task %s has fan: %d parents, %d children", task.Name, len(task.Parents), len(task.Children))
		}
	}
	// Critical path must cover all work.
	if w.CriticalPathWork() != w.TotalWork() {
		t.Error("chain critical path != total work")
	}
}

func TestForkjoinShape(t *testing.T) {
	w := Generate(Spec{App: Forkjoin, Tasks: 25, WorkSeconds: 1, FootprintBytes: 0})
	roots := w.Roots()
	if len(roots) != 1 {
		t.Fatalf("forkjoin has %d roots, want 1", len(roots))
	}
	if len(roots[0].Children) != 23 {
		t.Errorf("fork fan-out = %d, want 23", len(roots[0].Children))
	}
	// Critical path = 3 tasks of work.
	if w.CriticalPathWork() != 3*1*RefCoreSpeed {
		t.Errorf("forkjoin critical path = %v, want 3e9", w.CriticalPathWork())
	}
}

func TestSeismologyShape(t *testing.T) {
	w := Generate(Spec{App: Seismology, Tasks: 103, WorkSeconds: 1, FootprintBytes: 0})
	if len(w.Roots()) != 102 {
		t.Errorf("seismology roots = %d, want 102", len(w.Roots()))
	}
}

func TestEpigenomicsIsPipelined(t *testing.T) {
	w := Generate(Spec{App: Epigenomics, Tasks: 43, WorkSeconds: 1, FootprintBytes: 0})
	if len(w.Roots()) != 1 {
		t.Errorf("epigenomics roots = %d, want 1 (split)", len(w.Roots()))
	}
	// Pipeline depth: split + 4 stages + merge + index + pileup = 8 tasks
	// of critical path.
	if got := w.CriticalPathWork() / RefCoreSpeed; got != 8 {
		t.Errorf("critical path = %v tasks, want 8", got)
	}
}

func TestMontageHasDiamondStructure(t *testing.T) {
	w := Generate(Spec{App: Montage, Tasks: 60, WorkSeconds: 1, FootprintBytes: 0})
	// mConcatFit and mBgModel are single-width necks.
	singles := 0
	for _, task := range w.Tasks {
		if len(task.Parents) > 1 {
			singles++
		}
	}
	if singles == 0 {
		t.Error("montage has no fan-in tasks")
	}
}

func TestGenome1000HasAllToAllStage(t *testing.T) {
	w := Generate(Spec{App: Genome1000, Tasks: 54, WorkSeconds: 1, FootprintBytes: 0})
	// Analysis tasks depend on every merge task.
	maxParents := 0
	for _, task := range w.Tasks {
		if len(task.Parents) > maxParents {
			maxParents = len(task.Parents)
		}
	}
	if maxParents < 2 {
		t.Error("1000genome missing all-to-all analysis stage")
	}
}

func TestSpecName(t *testing.T) {
	s := Spec{App: SoyKB, Tasks: 98, WorkSeconds: 0.53, FootprintBytes: 150 * MB}
	if s.Name() != "soykb-n98-w0.53-d150MB" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{App: Genome1000, Tasks: 108, WorkSeconds: 2.11, FootprintBytes: 1500 * MB}
	a, b := Generate(spec), Generate(spec)
	if a.Size() != b.Size() {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Tasks {
		if a.Tasks[i].Name != b.Tasks[i].Name || a.Tasks[i].Work != b.Tasks[i].Work {
			t.Fatal("nondeterministic task list")
		}
	}
}

func TestUnknownAppPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown app accepted")
		}
	}()
	Generate(Spec{App: "nonesuch", Tasks: 10, WorkSeconds: 1})
}

func TestBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero size accepted")
		}
	}()
	Generate(Spec{App: Chain, Tasks: 0, WorkSeconds: 1})
}

// Property: any app×size in a broad range generates a valid workflow of
// exactly that size with the requested footprint.
func TestGenerateProperty(t *testing.T) {
	apps := AllApps
	f := func(appIdx uint8, size uint8, fpMB uint8) bool {
		app := apps[int(appIdx)%len(apps)]
		n := 10 + int(size)%500
		fp := float64(fpMB) * MB
		w := Generate(Spec{App: app, Tasks: n, WorkSeconds: 1, FootprintBytes: fp})
		if w.Size() != n {
			return false
		}
		if err := w.Validate(); err != nil {
			return false
		}
		return math.Abs(w.DataFootprint()-fp) < 1e-3*(fp+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestDistribute(t *testing.T) {
	parts := distribute(10, 3)
	sum := 0
	for _, p := range parts {
		sum += p
		if p < 3 || p > 4 {
			t.Errorf("unbalanced part %d", p)
		}
	}
	if sum != 10 {
		t.Errorf("distribute sum = %d, want 10", sum)
	}
}
