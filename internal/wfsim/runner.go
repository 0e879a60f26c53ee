package wfsim

import (
	"fmt"
	"slices"

	"simcal/internal/platform"
	"simcal/internal/stats"
	"simcal/internal/workflow"
)

// Runner simulates one scenario at one level of detail any number of
// times. Everything that does not depend on the parameter values is done
// once, in NewRunner: the workflow is compiled to task and file indices,
// the platform (hosts, disks, links, routes) is built, activity names
// are precomputed and every phase callback of every task and staged file
// is bound. Run then only resets the kernel, writes the configuration's
// capacities, latencies and concurrency caps into the platform, and
// simulates — a warmed Runner allocates nothing per run.
//
// Tasks are indexed in name order: index i is the task with the i-th
// smallest name (TaskNames). That is the order the ready queue pops, the
// order of a Result's Trace, and the order loss functions sum task
// errors in.
//
// A Runner is not safe for concurrent use. Results are bit-identical to
// a freshly built simulator's for every configuration sequence; see
// DESIGN.md §9 "Reuse contract".
type Runner struct {
	v      Version
	sc     Scenario
	budget int // event bound per run

	ps      *platform.Sim
	submit  *platform.Host
	workers []*platform.Host
	trunk   *platform.Link   // the macro link (one-link) or shared segment (series)
	spokes  []*platform.Link // per-worker dedicated links (star, series)

	names []string
	tasks []taskRun

	// Per-run state, indexed by task or worker.
	cfg        Config
	noise      *stats.RNG
	workerMult []float64 // per-worker speed multiplier (heterogeneity)
	pending    []int32   // unfinished parents
	ready      []int32   // min-heap of ready task indices
	freeCores  []int
	taskTimes  []float64
	traces     []TaskTrace
	remaining  int
}

// taskRun is one task's compiled form plus its callbacks, bound once.
type taskRun struct {
	r           *Runner
	idx         int32
	work        float64
	computeName string
	nParents    int32
	children    []int32
	inputs      []fileStage
	outputs     []fileStage

	// Per-run state.
	wi      int
	w       *platform.Host
	staging int // files of the current staging phase still moving

	// The kernel's entry points into the task, bound once.
	stageIn, compute, stageOut, finish func() // timer and computation completions
	fileIn, fileOut                    func() // staged-file completions
}

// fileStage moves one file of one task between the submit node and the
// task's worker.
type fileStage struct {
	t               *taskRun
	size            float64
	names           *stageNames
	xfer, afterXfer func()
}

// stageNames are the activity names of one file's staging steps in one
// direction, in path order (the worker-disk step is unnamed below the
// all-nodes storage level). The flow kernel fires simultaneous
// completions in name order, so they are part of the simulation's
// semantics, not labels.
type stageNames struct {
	read, xfer, write string
}

// NewRunner compiles the scenario for the version's level of detail.
func NewRunner(v Version, sc Scenario) (*Runner, error) {
	if sc.Workers < 1 {
		return nil, fmt.Errorf("wfsim: need at least 1 worker, got %d", sc.Workers)
	}
	if sc.Workflow == nil {
		return nil, fmt.Errorf("wfsim: nil workflow")
	}
	r := &Runner{v: v, sc: sc, budget: eventBudget(sc)}
	if err := r.compile(); err != nil {
		return nil, err
	}
	r.buildPlatform()
	return r, nil
}

// eventBudget bounds runaway simulations generously: every task incurs a
// bounded number of events per file and phase.
func eventBudget(sc Scenario) int {
	n := sc.Workflow.Size()
	files := len(sc.Workflow.Files)
	return 200*(n+files) + 10000
}

// compile indexes the workflow's tasks in name order and binds their
// callbacks.
func (r *Runner) compile() error {
	wf := r.sc.Workflow
	n := wf.Size()
	sorted := slices.Clone(wf.Tasks)
	slices.SortFunc(sorted, func(a, b *workflow.Task) int {
		if a.Name < b.Name {
			return -1
		}
		if a.Name > b.Name {
			return 1
		}
		return 0
	})
	index := make(map[string]int32, n)
	r.names = make([]string, n)
	for i, t := range sorted {
		if _, dup := index[t.Name]; dup {
			return fmt.Errorf("wfsim: duplicate task %s", t.Name)
		}
		index[t.Name] = int32(i)
		r.names[i] = t.Name
	}
	inNames := make(map[string]*stageNames)
	outNames := make(map[string]*stageNames)
	stages := func(t *taskRun, task string, fnames []string, inbound bool) ([]fileStage, error) {
		out := make([]fileStage, len(fnames))
		for i, fname := range fnames {
			f := wf.Files[fname]
			if f == nil {
				return nil, fmt.Errorf("wfsim: task %s references missing file %s", task, fname)
			}
			shared := outNames
			if inbound {
				shared = inNames
			}
			sn := shared[fname]
			if sn == nil {
				if inbound {
					sn = &stageNames{read: fname + ":sread", xfer: fname + ":in"}
					if r.v.Storage == AllNodes {
						sn.write = fname + ":lwrite"
					}
				} else {
					sn = &stageNames{xfer: fname + ":out", write: fname + ":swrite"}
					if r.v.Storage == AllNodes {
						sn.read = fname + ":lread"
					}
				}
				shared[fname] = sn
			}
			fs := &out[i]
			*fs = fileStage{t: t, size: f.Size, names: sn}
			if inbound {
				fs.xfer, fs.afterXfer = fs.xferIn, fs.afterXferIn
			} else {
				fs.xfer, fs.afterXfer = fs.xferOut, fs.afterXferOut
			}
		}
		return out, nil
	}
	r.tasks = make([]taskRun, n)
	for i, task := range sorted {
		t := &r.tasks[i]
		*t = taskRun{
			r: r, idx: int32(i), work: task.Work,
			computeName: task.Name + ":compute",
			nParents:    int32(len(task.Parents)),
		}
		for _, c := range task.Children {
			// A child the workflow does not contain can never become ready.
			if ci, ok := index[c]; ok {
				t.children = append(t.children, ci)
			}
		}
		var err error
		if t.inputs, err = stages(t, task.Name, task.Inputs, true); err != nil {
			return err
		}
		if t.outputs, err = stages(t, task.Name, task.Outputs, false); err != nil {
			return err
		}
		t.stageIn, t.compute, t.stageOut, t.finish = t.doStageIn, t.doCompute, t.doStageOut, t.doFinish
		t.fileIn, t.fileOut = t.fileInDone, t.fileOutDone
	}
	r.pending = make([]int32, n)
	r.taskTimes = make([]float64, n)
	r.traces = make([]TaskTrace, n)
	return nil
}

// buildPlatform assembles submit + workers and the version's network and
// storage layout. Capacities are placeholders until Run configures them.
func (r *Runner) buildPlatform() {
	p := platform.New()
	r.submit = p.AddHost(platform.NewHost("submit", 1, 1))
	r.submit.Disk = platform.NewDisk("submit:disk", 1, 0)
	n := r.sc.Workers
	r.workerMult = make([]float64, n)
	r.freeCores = make([]int, n)
	for i := 0; i < n; i++ {
		w := p.AddHost(platform.NewHost(fmt.Sprintf("worker%02d", i), 1, 1))
		if r.v.Storage == AllNodes {
			w.Disk = platform.NewDisk(w.Name+":disk", 1, 0)
		}
		r.workers = append(r.workers, w)
	}
	spokes := func(format string) {
		r.spokes = make([]*platform.Link, n)
		for i := range r.spokes {
			r.spokes[i] = platform.NewLink(fmt.Sprintf(format, i), 1, 0)
		}
	}
	switch r.v.Network {
	case OneLink:
		r.trunk = platform.NewLink("macro", 1, 0)
		platform.SharedLinkTopology(p, p.Hosts, r.trunk)
	case Star:
		spokes("star%02d")
		platform.StarTopology(p, r.submit, r.workers, r.spokes)
	case Series:
		r.trunk = platform.NewLink("shared", 1, 0)
		spokes("ded%02d")
		platform.SeriesTopology(p, r.submit, r.workers, r.trunk, r.spokes)
	}
	r.ps = platform.NewSim(p)
}

// TaskNames returns the task names in index (= name) order. The slice is
// shared; do not modify it.
func (r *Runner) TaskNames() []string { return r.names }

// TaskTimes returns the last successful Run's job walltimes by task
// index: from dispatch (including middleware overheads and data staging)
// to completion. The slice is overwritten by the next Run.
func (r *Runner) TaskTimes() []float64 { return r.taskTimes }

// Traces returns the last successful Run's per-task phase timestamps by
// task index. The slice is overwritten by the next Run.
func (r *Runner) Traces() []TaskTrace { return r.traces }

// Run simulates one execution under cfg and returns the makespan. The
// per-task outcome is read with TaskTimes and Traces. A Run that fails —
// or panics, and is recovered by the caller — leaves the Runner usable:
// the next Run starts from a full reset.
func (r *Runner) Run(cfg Config) (float64, error) {
	if cfg.CoreSpeed <= 0 || cfg.LinkBW <= 0 || cfg.DiskBW <= 0 {
		return 0, fmt.Errorf("wfsim: non-positive core speed, link bandwidth, or disk bandwidth")
	}
	if r.v.Network == Series && cfg.SharedBW <= 0 {
		return 0, fmt.Errorf("wfsim: series network requires positive shared bandwidth")
	}
	if cfg.WorkerCores == 0 {
		cfg.WorkerCores = 48
	}
	r.cfg = cfg
	r.noise = nil
	if cfg.Noise != nil {
		r.noise = stats.NewRNG(cfg.Noise.Seed)
	}
	r.ps.Reset()
	r.configure()
	r.start()
	if _, err := r.ps.Engine.Run(r.budget); err != nil {
		return 0, fmt.Errorf("wfsim: %w", err)
	}
	if r.remaining != 0 {
		return 0, fmt.Errorf("wfsim: deadlock — %d tasks never completed", r.remaining)
	}
	return r.ps.Engine.Now(), nil
}

// Result copies the last successful Run's outcome into a Result, which
// the next Run does not touch.
func (r *Runner) Result() *Result {
	res := &Result{
		Makespan:  r.ps.Engine.Now(),
		TaskTimes: make(map[string]float64, len(r.names)),
		Trace:     append([]TaskTrace(nil), r.traces...),
	}
	for i, name := range r.names {
		res.TaskTimes[name] = r.taskTimes[i]
	}
	return res
}

// configure writes cfg into the platform, drawing the per-worker
// heterogeneity multipliers in worker order — the only noise drawn
// before the simulation starts.
func (r *Runner) configure() {
	cfg := r.cfg
	r.submit.Configure(cfg.WorkerCores, cfg.CoreSpeed)
	r.submit.Disk.Configure(cfg.DiskBW, cfg.DiskConc)
	for i, w := range r.workers {
		mult := r.machineMult()
		r.workerMult[i] = mult
		w.Configure(cfg.WorkerCores, cfg.CoreSpeed*mult)
		if w.Disk != nil {
			w.Disk.Configure(cfg.DiskBW, cfg.DiskConc)
		}
		r.freeCores[i] = cfg.WorkerCores
	}
	switch r.v.Network {
	case OneLink:
		r.trunk.Configure(cfg.LinkBW, cfg.LinkLat)
	case Series:
		r.trunk.Configure(cfg.SharedBW, cfg.SharedLat)
	}
	for i, l := range r.spokes {
		l.Configure(cfg.LinkBW*r.workerMult[i], cfg.LinkLat)
	}
}

// machineMult draws the per-worker heterogeneity multiplier.
func (r *Runner) machineMult() float64 {
	if r.noise == nil || r.cfg.Noise.MachineSpread <= 0 {
		return 1
	}
	return r.noise.NoisyScale(r.cfg.Noise.MachineSpread)
}

// overhead draws a (possibly noisy) middleware overhead duration.
func (r *Runner) overhead(base float64) float64 {
	if base <= 0 {
		return 0
	}
	if r.noise == nil || r.cfg.Noise.OverheadSpread <= 0 {
		return base
	}
	return base * r.noise.NoisyScale(r.cfg.Noise.OverheadSpread)
}

// taskWork draws the (possibly noisy) work of a task.
func (r *Runner) taskWork(work float64) float64 {
	if r.noise == nil || r.cfg.Noise.WorkSpread <= 0 {
		return work
	}
	return work * r.noise.NoisyScale(r.cfg.Noise.WorkSpread)
}

// start clears the per-task state, seeds the ready queue and begins
// scheduling.
func (r *Runner) start() {
	r.ready = r.ready[:0]
	r.remaining = len(r.tasks)
	for i := range r.tasks {
		r.pending[i] = r.tasks[i].nParents
		r.taskTimes[i] = 0
		r.traces[i] = TaskTrace{Task: r.names[i]}
		if r.pending[i] == 0 {
			r.pushReady(int32(i))
		}
	}
	r.schedule()
}

// schedule greedily assigns ready tasks to workers with free cores —
// the WMS scheduling loop. Ready tasks go in name order; workers with
// more free cores win and ties go to the lowest index, keeping schedules
// deterministic.
func (r *Runner) schedule() {
	for len(r.ready) > 0 {
		wi := r.pickWorker()
		if wi < 0 {
			return
		}
		t := &r.tasks[r.popReady()]
		r.freeCores[wi]--
		t.run(wi)
	}
}

func (r *Runner) pickWorker() int {
	best, bestFree := -1, 0
	for i, free := range r.freeCores {
		if free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// pushReady and popReady keep ready a binary min-heap of task indices,
// i.e. of names.
func (r *Runner) pushReady(ti int32) {
	q := append(r.ready, ti)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	r.ready = q
}

func (r *Runner) popReady() int32 {
	q := r.ready
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if m+1 < n && q[m+1] < q[m] {
			m++
		}
		if q[i] <= q[m] {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	r.ready = q
	return top
}

// run drives the task through its lifecycle on worker wi:
// [HTCondor dispatch] → stage-in → [pre overhead] → compute →
// stage-out → [post overhead] → completion.
func (t *taskRun) run(wi int) {
	r := t.r
	t.wi, t.w = wi, r.workers[wi]
	tr := &r.traces[t.idx]
	tr.Worker, tr.Dispatch = wi, r.ps.Engine.Now()
	if r.v.Compute == HTCondor {
		r.ps.Engine.After(r.overhead(r.cfg.SubmitOvh), t.stageIn)
	} else {
		t.doStageIn()
	}
}

func (t *taskRun) doStageIn() {
	t.r.traces[t.idx].StageInStart = t.r.ps.Engine.Now()
	if len(t.inputs) == 0 {
		t.doPreCompute()
		return
	}
	t.staging = len(t.inputs)
	for i := range t.inputs {
		t.inputs[i].startIn()
	}
}

func (t *taskRun) doPreCompute() {
	r := t.r
	r.traces[t.idx].StageInEnd = r.ps.Engine.Now()
	if r.v.Compute == HTCondor {
		r.ps.Engine.After(r.overhead(r.cfg.PreOvh), t.compute)
	} else {
		t.doCompute()
	}
}

func (t *taskRun) doCompute() {
	r := t.r
	r.traces[t.idx].ComputeStart = r.ps.Engine.Now()
	t.w.Execute(r.ps.System, t.computeName, r.taskWork(t.work), t.stageOut)
}

func (t *taskRun) doStageOut() {
	t.r.traces[t.idx].ComputeEnd = t.r.ps.Engine.Now()
	if len(t.outputs) == 0 {
		t.doPostOut()
		return
	}
	t.staging = len(t.outputs)
	for i := range t.outputs {
		t.outputs[i].startOut()
	}
}

func (t *taskRun) doPostOut() {
	r := t.r
	r.traces[t.idx].StageOutEnd = r.ps.Engine.Now()
	if r.v.Compute == HTCondor {
		r.ps.Engine.After(r.overhead(r.cfg.PostOvh), t.finish)
	} else {
		t.doFinish()
	}
}

func (t *taskRun) doFinish() {
	r := t.r
	tr := &r.traces[t.idx]
	tr.End = r.ps.Engine.Now()
	r.taskTimes[t.idx] = tr.End - tr.Dispatch
	r.freeCores[t.wi]++
	r.remaining--
	for _, c := range t.children {
		r.pending[c]--
		if r.pending[c] == 0 {
			r.pushReady(c)
		}
	}
	r.schedule()
}

// Files are staged in parallel; the phase ends when the last one lands.
func (t *taskRun) fileInDone() {
	if t.staging--; t.staging == 0 {
		t.doPreCompute()
	}
}

func (t *taskRun) fileOutDone() {
	if t.staging--; t.staging == 0 {
		t.doPostOut()
	}
}

// An inbound file is read from the submit disk, transferred, and (at the
// all-nodes storage level) written to the worker disk.
func (f *fileStage) startIn() {
	r := f.t.r
	r.submit.Disk.IO(r.ps.System, f.names.read, f.size, f.xfer)
}

func (f *fileStage) xferIn() {
	r := f.t.r
	r.ps.Platform.Transfer(r.ps.System, f.names.xfer, r.submit, f.t.w, f.size, f.afterXfer)
}

func (f *fileStage) afterXferIn() {
	if d := f.t.w.Disk; d != nil {
		d.IO(f.t.r.ps.System, f.names.write, f.size, f.t.fileIn)
	} else {
		f.t.fileInDone()
	}
}

// An outbound file takes the reverse path.
func (f *fileStage) startOut() {
	if d := f.t.w.Disk; d != nil {
		d.IO(f.t.r.ps.System, f.names.read, f.size, f.xfer)
	} else {
		f.xferOut()
	}
}

func (f *fileStage) xferOut() {
	r := f.t.r
	r.ps.Platform.Transfer(r.ps.System, f.names.xfer, f.t.w, r.submit, f.size, f.afterXfer)
}

func (f *fileStage) afterXferOut() {
	r := f.t.r
	r.submit.Disk.IO(r.ps.System, f.names.write, f.size, f.t.fileOut)
}
