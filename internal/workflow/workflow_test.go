package workflow

import "testing"

// diamond builds a 4-task diamond DAG with files.
func diamond(t *testing.T) *Workflow {
	t.Helper()
	w := New("diamond")
	a := w.AddTask(&Task{Name: "a", Work: 100})
	b := w.AddTask(&Task{Name: "b", Work: 200})
	c := w.AddTask(&Task{Name: "c", Work: 300})
	d := w.AddTask(&Task{Name: "d", Work: 400})
	w.AddDependency(a, b)
	w.AddDependency(a, c)
	w.AddDependency(b, d)
	w.AddDependency(c, d)
	w.AddFile("in", 10)
	w.AddFile("a_out", 20)
	w.AddFile("b_out", 30)
	w.AddFile("c_out", 40)
	w.AddFile("d_out", 50)
	a.Inputs, a.Outputs = []string{"in"}, []string{"a_out"}
	b.Inputs, b.Outputs = []string{"a_out"}, []string{"b_out"}
	c.Inputs, c.Outputs = []string{"a_out"}, []string{"c_out"}
	d.Inputs, d.Outputs = []string{"b_out", "c_out"}, []string{"d_out"}
	if err := w.Validate(); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}
	return w
}

func TestDiamondBasics(t *testing.T) {
	w := diamond(t)
	if w.Size() != 4 {
		t.Errorf("Size = %d, want 4", w.Size())
	}
	if w.TotalWork() != 1000 {
		t.Errorf("TotalWork = %v, want 1000", w.TotalWork())
	}
	if w.DataFootprint() != 150 {
		t.Errorf("DataFootprint = %v, want 150", w.DataFootprint())
	}
	roots := w.Roots()
	if len(roots) != 1 || roots[0].Name != "a" {
		t.Errorf("Roots = %v", roots)
	}
	if w.TaskByName("c") == nil || w.TaskByName("zz") != nil {
		t.Error("TaskByName wrong")
	}
}

func TestTopoOrder(t *testing.T) {
	w := diamond(t)
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, task := range order {
		pos[task.Name] = i
	}
	if !(pos["a"] < pos["b"] && pos["a"] < pos["c"] && pos["b"] < pos["d"] && pos["c"] < pos["d"]) {
		t.Errorf("topological order violated: %v", pos)
	}
}

func TestCriticalPathWork(t *testing.T) {
	w := diamond(t)
	// a(100) → c(300) → d(400) = 800.
	if cp := w.CriticalPathWork(); cp != 800 {
		t.Errorf("CriticalPathWork = %v, want 800", cp)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	w := New("cyclic")
	a := w.AddTask(&Task{Name: "a"})
	b := w.AddTask(&Task{Name: "b"})
	w.AddDependency(a, b)
	w.AddDependency(b, a)
	if err := w.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateDetectsMissingRefs(t *testing.T) {
	w := New("bad")
	w.AddTask(&Task{Name: "a", Parents: []string{"ghost"}})
	if err := w.Validate(); err == nil {
		t.Error("missing parent not detected")
	}

	w2 := New("bad2")
	w2.AddTask(&Task{Name: "a", Inputs: []string{"ghost.dat"}})
	if err := w2.Validate(); err == nil {
		t.Error("missing file not detected")
	}

	w3 := New("bad3")
	a := w3.AddTask(&Task{Name: "a"})
	w3.AddTask(&Task{Name: "b", Parents: []string{"a"}})
	_ = a // a does not list b as child → asymmetric
	if err := w3.Validate(); err == nil {
		t.Error("asymmetric dependency not detected")
	}

	w4 := New("bad4")
	w4.AddTask(&Task{Name: "a", Work: -1})
	if err := w4.Validate(); err == nil {
		t.Error("negative work not detected")
	}
}

func TestDuplicatePanics(t *testing.T) {
	w := New("dup")
	w.AddTask(&Task{Name: "a"})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate task accepted")
			}
		}()
		w.AddTask(&Task{Name: "a"})
	}()
	w.AddFile("f", 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate file accepted")
			}
		}()
		w.AddFile("f", 2)
	}()
}

func TestTopoOrderDeterministic(t *testing.T) {
	mk := func() []string {
		w := New("wide")
		var names []string
		root := w.AddTask(&Task{Name: "root"})
		for i := 0; i < 20; i++ {
			name := string(rune('a'+i%26)) + string(rune('0'+i/26))
			task := w.AddTask(&Task{Name: name})
			w.AddDependency(root, task)
		}
		order, err := w.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range order {
			names = append(names, task.Name)
		}
		return names
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopoOrder not deterministic")
		}
	}
}
