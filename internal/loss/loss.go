// Package loss defines the paper's loss functions: the six workflow
// losses of Section 5.3.2 (combinations of average/maximum makespan and
// task-execution-time errors) and the four MPI losses of Section 6.3.2
// (combinations of average/maximum explained variance of data transfer
// rates). Each loss is packaged as a core.Evaluator that invokes the
// corresponding simulator for every ground-truth data point.
package loss

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"simcal/internal/core"
	"simcal/internal/groundtruth"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/stats"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
	"simcal/internal/workflow"
)

// WFKind selects one of the workflow loss functions L1–L6.
type WFKind int

// The six workflow losses. With e_i the makespan error of workflow i and
// e_{i,j} the execution-time error of its task j:
//
//	L1 = avg_i(e_i)                L2 = max_i(e_i)
//	L3 = avg_i(e_i + avg_j e_ij)   L4 = max_i(e_i + avg_j e_ij)
//	L5 = avg_i(e_i + max_j e_ij)   L6 = max_i(e_i + max_j e_ij)
const (
	WFL1 WFKind = iota
	WFL2
	WFL3
	WFL4
	WFL5
	WFL6
)

// AllWFKinds lists L1–L6 in order.
var AllWFKinds = []WFKind{WFL1, WFL2, WFL3, WFL4, WFL5, WFL6}

// String returns "L1"…"L6".
func (k WFKind) String() string { return fmt.Sprintf("L%d", int(k)+1) }

// wfCache memoizes generated workflows across loss evaluations: the
// calibration loop simulates the same specs thousands of times.
var wfCache sync.Map // wfgen.Spec → *workflow.Workflow

func cachedWorkflow(spec wfgen.Spec) *workflow.Workflow {
	if v, ok := wfCache.Load(spec); ok {
		return v.(*workflow.Workflow)
	}
	w := wfgen.Generate(spec)
	actual, _ := wfCache.LoadOrStore(spec, w)
	return actual.(*workflow.Workflow)
}

// wfRunners is everything one evaluator call needs that outlives it: a
// compiled wfsim.Runner per dataset group and the scratch the error
// terms are collected in. An evaluator keeps its sets between calls (see
// pool), so a steady calibration re-simulates on warm kernels and
// allocates nothing.
type wfRunners struct {
	groups   []wfGroupRunner
	terms    []float64
	taskErrs []float64
}

type wfGroupRunner struct {
	g *groundtruth.WFGroup
	r *wfsim.Runner
}

func newWFRunners(v wfsim.Version, ds *groundtruth.WFDataset) (*wfRunners, error) {
	set := &wfRunners{groups: make([]wfGroupRunner, len(ds.Groups))}
	for i, g := range ds.Groups {
		r, err := wfsim.NewRunner(v, wfsim.Scenario{Workflow: cachedWorkflow(g.Spec), Workers: g.Workers})
		if err != nil {
			return nil, err
		}
		// Both lists are the group's tasks sorted by name, so the
		// runner's j-th task time is the group's j-th mean.
		if !slices.Equal(r.TaskNames(), g.TaskNames) {
			return nil, fmt.Errorf("loss: group %s task names differ from its generated workflow's", g.Key())
		}
		set.groups[i] = wfGroupRunner{g: g, r: r}
	}
	return set, nil
}

// taskErrors returns the per-task errors e_{i,j} of the runner's last
// run, in the group's frozen task order, in the set's scratch.
func (set *wfRunners) taskErrors(gr *wfGroupRunner) []float64 {
	errs := set.taskErrs[:0]
	times := gr.r.TaskTimes()
	for j, gt := range gr.g.MeanTaskTimeSeq {
		errs = append(errs, stats.RelError(gt, times[j]))
	}
	set.taskErrs = errs
	return errs
}

// pool is the free list of runner sets behind an evaluator: concurrent
// calls each take a set and put it back when they are done with it, on a
// normal return only. A call that panics abandons its set (the kernel may
// be mid-update), and a call the resilience layer has timed out and
// abandoned still owns its set until the stray simulation actually
// returns, so no two simulations ever share a kernel. The list never
// holds more sets than the peak number of concurrent calls, and dies
// with the evaluator. (It is a plain locked slice rather than a sync.Pool
// on purpose: a sync.Pool is emptied by the garbage collector and keeps
// one unstealable item per P, which made allocations per evaluation vary
// thirtyfold between identical runs — the opposite of a noise-free gate.)
type pool[T any] struct {
	build func() (*T, error)
	mu    sync.Mutex
	free  []*T
}

// get takes a set off the list, or builds one when the list is empty.
func (p *pool[T]) get() (*T, error) {
	var set *T
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		set, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if set != nil {
		return set, nil
	}
	return p.build()
}

// put hands a set on to the next call. Never defer it: a panicking call
// must not hand its set on.
func (p *pool[T]) put(set *T) {
	p.mu.Lock()
	p.free = append(p.free, set)
	p.mu.Unlock()
}

// WFEvaluator returns the calibration loss: simulate every group of the
// dataset under the version at the candidate point and aggregate errors
// according to kind. A steady calibration re-simulates on the warm
// kernels of the evaluator's pool.
func WFEvaluator(v wfsim.Version, kind WFKind, ds *groundtruth.WFDataset) core.Evaluator {
	sets := &pool[wfRunners]{build: func() (*wfRunners, error) { return newWFRunners(v, ds) }}
	return func(ctx context.Context, p core.Point) (float64, error) {
		set, err := sets.get()
		if err != nil {
			return 0, err
		}
		loss, err := set.evaluate(ctx, v.DecodeConfig(p), kind)
		sets.put(set)
		return loss, err
	}
}

func (set *wfRunners) evaluate(ctx context.Context, cfg wfsim.Config, kind WFKind) (float64, error) {
	terms := set.terms[:0]
	for i := range set.groups {
		gr := &set.groups[i]
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		makespan, err := gr.r.Run(cfg)
		if err != nil {
			return 0, err
		}
		ei := stats.RelError(gr.g.MeanMakespan, makespan)
		var term float64
		switch kind {
		case WFL1, WFL2:
			term = ei
		case WFL3, WFL4:
			term = ei + stats.Mean(set.taskErrors(gr))
		case WFL5, WFL6:
			m := 0.0
			if taskErrs := set.taskErrors(gr); len(taskErrs) > 0 {
				m = stats.Max(taskErrs)
			}
			term = ei + m
		default:
			return 0, fmt.Errorf("loss: unknown workflow kind %d", kind)
		}
		terms = append(terms, term)
	}
	set.terms = terms
	if len(terms) == 0 {
		return 0, fmt.Errorf("loss: empty workflow dataset")
	}
	switch kind {
	case WFL1, WFL3, WFL5:
		return stats.Mean(terms), nil
	default:
		return stats.Max(terms), nil
	}
}

// WFMakespanErrors simulates every group under cfg and returns the
// percent relative makespan errors, in group order — the Figure 2
// accuracy metric.
func WFMakespanErrors(v wfsim.Version, cfg wfsim.Config, ds *groundtruth.WFDataset) ([]float64, error) {
	var out []float64
	for _, g := range ds.Groups {
		res, err := wfsim.Simulate(v, cfg, wfsim.Scenario{Workflow: cachedWorkflow(g.Spec), Workers: g.Workers})
		if err != nil {
			return nil, err
		}
		out = append(out, 100*stats.RelError(g.MeanMakespan, res.Makespan))
	}
	return out, nil
}

// MPIKind selects one of the MPI loss functions L1–L4.
type MPIKind int

// The four MPI losses over explained variance ev_{i,j} (benchmark i,
// message size j):
//
//	L1 = avg_i(avg_j ev_ij)   L2 = avg_i(max_j ev_ij)
//	L3 = max_i(avg_j ev_ij)   L4 = max_i(max_j ev_ij)
const (
	MPIL1 MPIKind = iota
	MPIL2
	MPIL3
	MPIL4
)

// AllMPIKinds lists L1–L4 in order.
var AllMPIKinds = []MPIKind{MPIL1, MPIL2, MPIL3, MPIL4}

// String returns "L1"…"L4".
func (k MPIKind) String() string { return fmt.Sprintf("L%d", int(k)+1) }

// mpiRunners is the MPI counterpart of wfRunners: one warm
// mpisim.Runner — measurements on equally large clusters share a
// platform — and the scratch the explained variances are collected in.
type mpiRunners struct {
	r    *mpisim.Runner
	sims []mpiSim // in measurement order
	// evs[b] collects the explained variances of the b-th benchmark, in
	// order of first appearance in the dataset.
	evs   [][]float64
	terms []float64
}

type mpiSim struct {
	m     *groundtruth.MPIMeasurement
	sc    mpisim.Scenario
	bench int // index into evs
}

func newMPIRunners(v mpisim.Version, ds *groundtruth.MPIDataset, rounds int) *mpiRunners {
	set := &mpiRunners{r: mpisim.NewRunner(v), sims: make([]mpiSim, len(ds.Measurements))}
	var benches []mpi.Benchmark
	for i, m := range ds.Measurements {
		b := slices.Index(benches, m.Benchmark)
		if b < 0 {
			b = len(benches)
			benches = append(benches, m.Benchmark)
			set.evs = append(set.evs, nil)
		}
		set.sims[i] = mpiSim{m: m, bench: b, sc: mpisim.Scenario{
			Benchmark: m.Benchmark, Nodes: m.Nodes, MsgBytes: m.MsgBytes, Rounds: rounds, Seed: 0,
		}}
	}
	return set
}

// MPIEvaluator returns the calibration loss over the MPI dataset: the
// explained variance between each measurement's rate samples and the
// single simulated rate, aggregated per kind. rounds is forwarded to the
// benchmark kernels (0 = default). Like WFEvaluator it simulates on the
// warm kernels of its pool.
func MPIEvaluator(v mpisim.Version, kind MPIKind, ds *groundtruth.MPIDataset, rounds int) core.Evaluator {
	sets := &pool[mpiRunners]{build: func() (*mpiRunners, error) { return newMPIRunners(v, ds, rounds), nil }}
	return func(ctx context.Context, p core.Point) (float64, error) {
		set, err := sets.get()
		if err != nil {
			return 0, err
		}
		loss, err := set.evaluate(ctx, v.DecodeConfig(p), kind)
		sets.put(set)
		return loss, err
	}
}

func (set *mpiRunners) evaluate(ctx context.Context, cfg mpisim.Config, kind MPIKind) (float64, error) {
	for b := range set.evs {
		set.evs[b] = set.evs[b][:0]
	}
	for i := range set.sims {
		sim := &set.sims[i]
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		rate, err := set.r.Run(cfg, sim.sc)
		if err != nil {
			return 0, err
		}
		set.evs[sim.bench] = append(set.evs[sim.bench], stats.ExplainedVariance(sim.m.Rates, rate))
	}
	if len(set.evs) == 0 {
		return 0, fmt.Errorf("loss: empty MPI dataset")
	}
	terms := set.terms[:0]
	for _, evs := range set.evs {
		switch kind {
		case MPIL1, MPIL3:
			terms = append(terms, stats.Mean(evs))
		case MPIL2, MPIL4:
			terms = append(terms, stats.Max(evs))
		default:
			return 0, fmt.Errorf("loss: unknown MPI kind %d", kind)
		}
	}
	set.terms = terms
	switch kind {
	case MPIL1, MPIL2:
		return stats.Mean(terms), nil
	default:
		return stats.Max(terms), nil
	}
}

// MPIRateErrors simulates every measurement under cfg and returns the
// percent relative error between the simulated rate and the mean
// ground-truth rate, in measurement order — the Figure 5 accuracy
// metric, also used for Table 5's transfer-rate error row.
func MPIRateErrors(v mpisim.Version, cfg mpisim.Config, ds *groundtruth.MPIDataset, rounds int) ([]float64, error) {
	var out []float64
	for _, m := range ds.Measurements {
		rate, err := mpisim.Simulate(v, cfg, mpisim.Scenario{
			Benchmark: m.Benchmark, Nodes: m.Nodes, MsgBytes: m.MsgBytes, Rounds: rounds, Seed: 0,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, 100*stats.RelError(m.MeanRate(), rate))
	}
	return out, nil
}
