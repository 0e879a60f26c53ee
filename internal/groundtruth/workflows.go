// Package groundtruth generates the ground-truth execution data both
// case studies calibrate against. The paper used real systems (Pegasus/
// HTCondor on Chameleon Cloud; IMB on Summit); this repository
// substitutes *reference simulators* configured at a strictly higher
// level of detail than any candidate simulator version, driven by hidden
// "true" parameters plus stochastic noise, and replayed several times
// per configuration. The methodology only requires ground-truth logs
// whose generating process is richer than the candidate simulators —
// exactly the real-world situation — and the hidden truth additionally
// lets the repository validate calibration error end to end.
//
// The package also produces the *synthetic* ground truth of Section 3's
// benchmarking technique: candidate simulators run at a planted
// calibration, noise-free, so the best calibration is known by design.
package groundtruth

import (
	"fmt"
	"sort"

	"simcal/internal/core"
	"simcal/internal/stats"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// WorkflowReferenceVersion is the level of detail of the reference
// workflow platform: star network, storage everywhere, HTCondor.
var WorkflowReferenceVersion = wfsim.Version{
	Network: wfsim.Star,
	Storage: wfsim.AllNodes,
	Compute: wfsim.HTCondor,
}

// WorkflowTruth holds the hidden true parameters of the reference
// workflow platform (Chameleon-like: 48-core Icelake workers, 10 Gb/s
// networking, NVMe-ish storage, ~1–2 s HTCondor overheads).
var WorkflowTruth = wfsim.Config{
	CoreSpeed: 1e9,   // ops/s — Table 1 work values are calibrated to this
	DiskBW:    250e6, // bytes/s
	DiskConc:  16,
	LinkBW:    1.25e9, // bytes/s (10 Gb/s)
	LinkLat:   1e-4,
	SubmitOvh: 1.5,
	PreOvh:    0.8,
	PostOvh:   0.5,
}

// WorkflowTruthPoint returns the true parameters as a calibration point
// in the given version's space (used to measure calibration error for
// versions that share the reference's parameters).
func WorkflowTruthPoint(v wfsim.Version) core.Point {
	p := core.Point{
		wfsim.ParamCoreSpeed: WorkflowTruth.CoreSpeed,
		wfsim.ParamDiskBW:    WorkflowTruth.DiskBW,
		wfsim.ParamDiskConc:  float64(WorkflowTruth.DiskConc),
		wfsim.ParamLinkBW:    WorkflowTruth.LinkBW,
		wfsim.ParamLinkLat:   WorkflowTruth.LinkLat,
	}
	if v.Network == wfsim.Series {
		p[wfsim.ParamSharedBW] = WorkflowTruth.LinkBW
		p[wfsim.ParamSharedLat] = WorkflowTruth.LinkLat
	}
	if v.Compute == wfsim.HTCondor {
		p[wfsim.ParamSubmitOvh] = WorkflowTruth.SubmitOvh
		p[wfsim.ParamPreOvh] = WorkflowTruth.PreOvh
		p[wfsim.ParamPostOvh] = WorkflowTruth.PostOvh
	}
	return p
}

// workflowNoise is the reference platform's run-to-run variability.
func workflowNoise(seed int64) *wfsim.NoiseModel {
	return &wfsim.NoiseModel{
		Seed:           seed,
		WorkSpread:     0.04,
		OverheadSpread: 0.15,
		MachineSpread:  0.02,
	}
}

// WFExecution is one ground-truth workflow execution record (one
// repetition of one configuration).
type WFExecution struct {
	Spec      wfgen.Spec
	Workers   int
	Rep       int
	Makespan  float64
	TaskTimes map[string]float64
}

// WFGroup aggregates the repetitions of one (spec, workers)
// configuration.
type WFGroup struct {
	Spec    wfgen.Spec
	Workers int
	Runs    []*WFExecution

	// MeanMakespan and MeanTaskTimes average over repetitions.
	MeanMakespan  float64
	MeanTaskTimes map[string]float64

	// TaskNames freezes one order over the group's tasks — sorted by
	// name, which is also wfsim.Runner's task index order — and
	// MeanTaskTimeSeq[i] is MeanTaskTimes[TaskNames[i]]. Anything that
	// sums over tasks (the L3/L4 losses) walks these, never the map: map
	// iteration order would make the last bits of the sum vary from call
	// to call.
	TaskNames       []string
	MeanTaskTimeSeq []float64
}

// Key identifies the group.
func (g *WFGroup) Key() string {
	return fmt.Sprintf("%s@%dw", g.Spec.Name(), g.Workers)
}

// Cost is the paper's resource-cost metric for obtaining this group's
// ground truth: Σ over executions of workers × makespan (seconds).
func (g *WFGroup) Cost() float64 {
	c := 0.0
	for _, r := range g.Runs {
		c += float64(g.Workers) * r.Makespan
	}
	return c
}

// WFDataset is a collection of ground-truth workflow groups.
type WFDataset struct {
	Groups []*WFGroup
}

// Cost sums the resource cost over all groups.
func (d *WFDataset) Cost() float64 {
	c := 0.0
	for _, g := range d.Groups {
		c += g.Cost()
	}
	return c
}

// Filter returns the subset of groups satisfying keep.
func (d *WFDataset) Filter(keep func(*WFGroup) bool) *WFDataset {
	out := &WFDataset{}
	for _, g := range d.Groups {
		if keep(g) {
			out.Groups = append(out.Groups, g)
		}
	}
	return out
}

// WFOptions selects which slice of Table 1's grid to execute.
// Nil slices default to the full Table 1 grid for the chosen apps.
type WFOptions struct {
	Apps    []wfgen.App
	SizeIdx []int // indices into Table1[app].Sizes
	WorkIdx []int // indices into Table1[app].WorkSeconds
	FootIdx []int // indices into Table1[app].FootprintsMB
	Workers []int // default {1,2,4,6} (chain: {1} only)
	Reps    int   // default 5
	Seed    int64
}

// GenerateWorkflowData executes the selected configurations on the
// reference platform and returns the resulting dataset. Generation is
// deterministic given the options.
func GenerateWorkflowData(o WFOptions) (*WFDataset, error) {
	if len(o.Apps) == 0 {
		o.Apps = wfgen.AllApps
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4, 6}
	}
	if o.Reps <= 0 {
		o.Reps = 5
	}
	ds := &WFDataset{}
	seedStream := stats.NewRNG(o.Seed)
	for _, app := range o.Apps {
		aspec, ok := wfgen.Table1[app]
		if !ok {
			return nil, fmt.Errorf("groundtruth: unknown app %q", app)
		}
		sizes := pick(aspec.Sizes, o.SizeIdx)
		works := pick(aspec.WorkSeconds, o.WorkIdx)
		foots := pick(aspec.FootprintsMB, o.FootIdx)
		workers := o.Workers
		if app == wfgen.Chain {
			workers = []int{1} // the chain benchmark only uses one worker
		}
		for _, n := range sizes {
			for _, ws := range works {
				for _, fp := range foots {
					spec := wfgen.Spec{App: app, Tasks: n, WorkSeconds: ws, FootprintBytes: fp * wfgen.MB}
					wf := wfgen.Generate(spec)
					for _, nw := range workers {
						g := &WFGroup{Spec: spec, Workers: nw}
						runner, err := wfsim.NewRunner(WorkflowReferenceVersion, wfsim.Scenario{Workflow: wf, Workers: nw})
						if err != nil {
							return nil, fmt.Errorf("groundtruth: %s on %d workers: %w", spec.Name(), nw, err)
						}
						for rep := 0; rep < o.Reps; rep++ {
							cfg := WorkflowTruth
							cfg.Noise = workflowNoise(seedStream.Int63())
							if _, err := runner.Run(cfg); err != nil {
								return nil, fmt.Errorf("groundtruth: %s on %d workers: %w", spec.Name(), nw, err)
							}
							res := runner.Result()
							g.Runs = append(g.Runs, &WFExecution{
								Spec: spec, Workers: nw, Rep: rep,
								Makespan: res.Makespan, TaskTimes: res.TaskTimes,
							})
						}
						aggregateGroup(g)
						ds.Groups = append(ds.Groups, g)
					}
				}
			}
		}
	}
	return ds, nil
}

// SyntheticWorkflowData produces Section 3's synthetic ground truth: it
// runs the given candidate simulator version itself, noise-free, at the
// planted calibration, over the scenarios of the template dataset. The
// best calibration for this data is the planted point by design.
func SyntheticWorkflowData(v wfsim.Version, planted core.Point, template *WFDataset) (*WFDataset, error) {
	cfg := v.DecodeConfig(planted)
	out := &WFDataset{}
	for _, g := range template.Groups {
		wf := wfgen.Generate(g.Spec)
		res, err := wfsim.Simulate(v, cfg, wfsim.Scenario{Workflow: wf, Workers: g.Workers})
		if err != nil {
			return nil, fmt.Errorf("groundtruth: synthetic %s: %w", g.Key(), err)
		}
		ng := &WFGroup{Spec: g.Spec, Workers: g.Workers}
		ng.Runs = []*WFExecution{{
			Spec: g.Spec, Workers: g.Workers,
			Makespan: res.Makespan, TaskTimes: res.TaskTimes,
		}}
		aggregateGroup(ng)
		out.Groups = append(out.Groups, ng)
	}
	return out, nil
}

// aggregateGroup fills the group's means from its runs. Each task's
// times are summed in run order, over the tasks in name order, so the
// aggregates are a pure function of the runs.
func aggregateGroup(g *WFGroup) {
	if len(g.Runs) == 0 {
		return
	}
	ms := make([]float64, len(g.Runs))
	seen := make(map[string]struct{})
	for i, r := range g.Runs {
		ms[i] = r.Makespan
		for name := range r.TaskTimes {
			seen[name] = struct{}{}
		}
	}
	g.MeanMakespan = stats.Mean(ms)
	g.TaskNames = make([]string, 0, len(seen))
	for name := range seen {
		g.TaskNames = append(g.TaskNames, name)
	}
	sort.Strings(g.TaskNames)
	g.MeanTaskTimes = make(map[string]float64, len(g.TaskNames))
	g.MeanTaskTimeSeq = make([]float64, len(g.TaskNames))
	for i, name := range g.TaskNames {
		sum := 0.0
		for _, r := range g.Runs {
			sum += r.TaskTimes[name]
		}
		g.MeanTaskTimeSeq[i] = sum / float64(len(g.Runs))
		g.MeanTaskTimes[name] = g.MeanTaskTimeSeq[i]
	}
}

// pick selects elements of xs at the given indices, or all of xs when
// idx is nil. Out-of-range indices panic.
func pick[T any](xs []T, idx []int) []T {
	if idx == nil {
		return xs
	}
	out := make([]T, 0, len(idx))
	for _, i := range idx {
		out = append(out, xs[i])
	}
	return out
}
