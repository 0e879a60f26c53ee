// Package workflow models scientific workflows as DAGs of tasks that
// read and write files — the WfCommons-style representation consumed by
// the workflow simulator of case study #1.
package workflow

import "fmt"

// File is a workflow data file.
type File struct {
	// Name identifies the file within the workflow.
	Name string
	// Size is the file size in bytes.
	Size float64
}

// Task is a unit of computation.
type Task struct {
	// Name identifies the task within the workflow.
	Name string
	// Work is the task's sequential computation in machine-independent
	// operations (ops). A task running alone on a core of speed s ops/s
	// takes Work/s seconds.
	Work float64
	// Inputs and Outputs name the files the task reads and writes.
	Inputs  []string
	Outputs []string
	// Parents and Children name control dependencies. Data dependencies
	// implied by files must be consistent with them.
	Parents  []string
	Children []string
}

// Workflow is a DAG of tasks plus its file inventory.
type Workflow struct {
	// Name identifies the workflow (application + configuration).
	Name  string
	Tasks []*Task
	Files map[string]*File

	byName map[string]*Task
}

// New returns an empty workflow.
func New(name string) *Workflow {
	return &Workflow{Name: name, Files: make(map[string]*File), byName: make(map[string]*Task)}
}

// AddFile registers a file. Re-adding an existing name panics.
func (w *Workflow) AddFile(name string, size float64) *File {
	if _, dup := w.Files[name]; dup {
		panic("workflow: duplicate file " + name)
	}
	f := &File{Name: name, Size: size}
	w.Files[name] = f
	return f
}

// AddTask registers a task. Duplicate names panic.
func (w *Workflow) AddTask(t *Task) *Task {
	if _, dup := w.byName[t.Name]; dup {
		panic("workflow: duplicate task " + t.Name)
	}
	w.Tasks = append(w.Tasks, t)
	w.byName[t.Name] = t
	return t
}

// AddDependency records that child depends on parent.
func (w *Workflow) AddDependency(parent, child *Task) {
	parent.Children = append(parent.Children, child.Name)
	child.Parents = append(child.Parents, parent.Name)
}

// TaskByName returns the named task, or nil.
func (w *Workflow) TaskByName(name string) *Task { return w.byName[name] }

// Size returns the number of tasks.
func (w *Workflow) Size() int { return len(w.Tasks) }

// TotalWork returns the sum of task work (ops).
func (w *Workflow) TotalWork() float64 {
	s := 0.0
	for _, t := range w.Tasks {
		s += t.Work
	}
	return s
}

// DataFootprint returns the sum of all file sizes in bytes — the metric
// Table 1 of the paper reports per benchmark configuration.
func (w *Workflow) DataFootprint() float64 {
	s := 0.0
	for _, f := range w.Files {
		s += f.Size
	}
	return s
}

// Validate checks structural invariants: dependency references resolve,
// file references resolve, parent/child lists are symmetric, and the
// graph is acyclic.
func (w *Workflow) Validate() error {
	// Edge sets make the symmetry checks O(E): scanning each counterpart
	// list linearly is quadratic on wide fan-in stages (a merge task with
	// 100k parents is scanned once per parent).
	type edge struct{ parent, child string }
	childEdges := make(map[edge]struct{})  // p lists c in p.Children
	parentEdges := make(map[edge]struct{}) // c lists p in c.Parents
	for _, t := range w.Tasks {
		for _, c := range t.Children {
			childEdges[edge{t.Name, c}] = struct{}{}
		}
		for _, p := range t.Parents {
			parentEdges[edge{p, t.Name}] = struct{}{}
		}
	}
	for _, t := range w.Tasks {
		for _, p := range t.Parents {
			if w.byName[p] == nil {
				return fmt.Errorf("workflow %s: task %s references missing parent %s", w.Name, t.Name, p)
			}
			if _, ok := childEdges[edge{p, t.Name}]; !ok {
				return fmt.Errorf("workflow %s: asymmetric dependency %s -> %s", w.Name, p, t.Name)
			}
		}
		for _, c := range t.Children {
			if w.byName[c] == nil {
				return fmt.Errorf("workflow %s: task %s references missing child %s", w.Name, t.Name, c)
			}
			if _, ok := parentEdges[edge{t.Name, c}]; !ok {
				return fmt.Errorf("workflow %s: asymmetric dependency %s -> %s", w.Name, t.Name, c)
			}
		}
		for _, f := range t.Inputs {
			if _, ok := w.Files[f]; !ok {
				return fmt.Errorf("workflow %s: task %s references missing file %s", w.Name, t.Name, f)
			}
		}
		for _, f := range t.Outputs {
			if _, ok := w.Files[f]; !ok {
				return fmt.Errorf("workflow %s: task %s references missing file %s", w.Name, t.Name, f)
			}
		}
		if t.Work < 0 {
			return fmt.Errorf("workflow %s: task %s has negative work", w.Name, t.Name)
		}
	}
	if _, err := w.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Roots returns tasks with no parents, in insertion order.
func (w *Workflow) Roots() []*Task {
	var out []*Task
	for _, t := range w.Tasks {
		if len(t.Parents) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// TopoOrder returns the tasks in a deterministic topological order, or
// an error if the graph has a cycle. The order is Kahn's algorithm
// always emitting the lexicographically smallest ready task name — the
// same order the package has produced since its first version.
func (w *Workflow) TopoOrder() ([]*Task, error) {
	indeg := make(map[string]int, len(w.Tasks))
	for _, t := range w.Tasks {
		indeg[t.Name] = len(t.Parents)
	}
	var ready NameQueue
	for _, t := range w.Tasks {
		if indeg[t.Name] == 0 {
			ready.Push(t.Name)
		}
	}
	out := make([]*Task, 0, len(w.Tasks))
	for ready.Len() > 0 {
		t := w.byName[ready.Pop()]
		out = append(out, t)
		for _, c := range t.Children {
			indeg[c]--
			if indeg[c] == 0 {
				ready.Push(c)
			}
		}
	}
	if len(out) != len(w.Tasks) {
		return nil, fmt.Errorf("workflow %s: dependency cycle detected", w.Name)
	}
	return out, nil
}

// CriticalPathWork returns the maximum total work (ops) along any
// root-to-leaf path — a lower bound on makespan×speed for any schedule.
func (w *Workflow) CriticalPathWork() float64 {
	order, err := w.TopoOrder()
	if err != nil {
		return 0
	}
	finish := make(map[string]float64, len(order))
	best := 0.0
	for _, t := range order {
		start := 0.0
		for _, p := range t.Parents {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[t.Name] = start + t.Work
		if finish[t.Name] > best {
			best = finish[t.Name]
		}
	}
	return best
}

// NameQueue is a binary min-heap of task names: Pop always returns the
// lexicographically smallest element. It replaces the former fully
// sorted ready queues here and in the workflow simulator, whose
// per-insert copy of the whole queue was quadratic on wide levels
// (a 100k-way fan-out stage releases 100k tasks at once) while yielding
// the identical pop order. The zero value is an empty queue.
type NameQueue []string

// Len returns the number of queued names.
func (h NameQueue) Len() int { return len(h) }

// Push adds a name to the queue.
func (h *NameQueue) Push(s string) {
	q := append(*h, s)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

// Pop removes and returns the lexicographically smallest queued name.
// It panics on an empty queue.
func (h *NameQueue) Pop() string {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q[r] < q[l] {
			m = r
		}
		if q[i] <= q[m] {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}
