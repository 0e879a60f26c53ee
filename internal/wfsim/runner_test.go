package wfsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"simcal/internal/obs"
	"simcal/internal/stats"
	"simcal/internal/wfgen"
	"simcal/internal/workflow"
)

func table1Workflow(app wfgen.App, sizeIdx int) *workflow.Workflow {
	a := wfgen.Table1[app]
	return wfgen.Generate(wfgen.Spec{
		App: app, Tasks: a.Sizes[sizeIdx],
		WorkSeconds: a.WorkSeconds[1], FootprintBytes: a.FootprintsMB[1] * wfgen.MB,
	})
}

// sameBits fails the test unless the runner's last run and the fresh
// result agree on every float64 bit of the makespan, every task time and
// every trace field.
func sameBits(t *testing.T, label string, r *Runner, makespan float64, fresh *Result) {
	t.Helper()
	bits := math.Float64bits
	if bits(makespan) != bits(fresh.Makespan) {
		t.Fatalf("%s: makespan %v (reused) != %v (fresh)", label, makespan, fresh.Makespan)
	}
	if len(fresh.TaskTimes) != len(r.TaskNames()) || len(fresh.Trace) != len(r.TaskNames()) {
		t.Fatalf("%s: fresh result has %d task times and %d traces for %d tasks",
			label, len(fresh.TaskTimes), len(fresh.Trace), len(r.TaskNames()))
	}
	for i, name := range r.TaskNames() {
		if got, want := r.TaskTimes()[i], fresh.TaskTimes[name]; bits(got) != bits(want) {
			t.Fatalf("%s: task %s time %v (reused) != %v (fresh)", label, name, got, want)
		}
		a, b := r.Traces()[i], fresh.Trace[i]
		af := [...]float64{a.Dispatch, a.StageInStart, a.StageInEnd, a.ComputeStart, a.ComputeEnd, a.StageOutEnd, a.End}
		bf := [...]float64{b.Dispatch, b.StageInStart, b.StageInEnd, b.ComputeStart, b.ComputeEnd, b.StageOutEnd, b.End}
		if a.Task != b.Task || a.Worker != b.Worker {
			t.Fatalf("%s: trace %d is %s@%d (reused), %s@%d (fresh)", label, i, a.Task, a.Worker, b.Task, b.Worker)
		}
		for k := range af {
			if bits(af[k]) != bits(bf[k]) {
				t.Fatalf("%s: task %s trace field %d: %v (reused) != %v (fresh)", label, name, k, af[k], bf[k])
			}
		}
	}
}

// TestRunnerReuseEqualsFresh is the reuse contract: one Runner driven
// through a shuffled sequence of configurations — different disk
// concurrency caps and core counts, with and without noise, with a run
// cut off by the event bound and a run whose callback panics in between —
// returns, run for run, the bits a freshly built simulator returns.
func TestRunnerReuseEqualsFresh(t *testing.T) {
	wf := table1Workflow(wfgen.Montage, 0)
	for vi, v := range AllVersions() {
		for _, noisy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noise=%v", v.Name(), noisy), func(t *testing.T) {
				sc := Scenario{Workflow: wf, Workers: 3}
				rng := stats.NewRNG(int64(100*vi + 7))
				var cfgs []Config
				for i, shape := range []struct{ conc, cores int }{{1, 1}, {3, 2}, {0, 48}, {16, 0}, {2, 4}, {100, 3}} {
					cfg := randomCfg(v, rng)
					cfg.DiskConc, cfg.WorkerCores = shape.conc, shape.cores
					if noisy {
						cfg.Noise = &NoiseModel{Seed: int64(i + 1), WorkSpread: 0.04, OverheadSpread: 0.15, MachineSpread: 0.02}
					}
					cfgs = append(cfgs, cfg)
				}
				r, err := NewRunner(v, sc)
				if err != nil {
					t.Fatal(err)
				}
				order := append(rng.Perm(len(cfgs)), rng.Perm(len(cfgs))...)
				for step, ci := range order {
					switch step {
					case 3: // a run the event bound cuts off mid-flight
						budget := r.budget
						r.budget = 40
						if _, err := r.Run(cfgs[ci]); err == nil || !strings.Contains(err.Error(), "event bound") {
							t.Fatalf("bounded run: err = %v, want the event bound", err)
						}
						r.budget = budget
					case 7: // a run whose callback panics, recovered by the caller
						task := &r.tasks[len(r.tasks)/2]
						stageOut := task.stageOut
						task.stageOut = func() { panic("injected") }
						func() {
							defer func() {
								if recover() == nil {
									t.Fatal("injected callback panic did not propagate")
								}
							}()
							r.Run(cfgs[ci])
						}()
						task.stageOut = stageOut
					}
					makespan, err := r.Run(cfgs[ci])
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := Simulate(v, cfgs[ci], sc)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("step %d (config %d)", step, ci), r, makespan, fresh)
				}
			})
		}
	}
}

// TestRunnerReuseKeepsKernelMetrics: N runs on one Runner publish
// exactly N times what one fresh simulation publishes — the run-end hook
// list does not grow across resets and no run's counters leak into the
// next.
func TestRunnerReuseKeepsKernelMetrics(t *testing.T) {
	v := HighestDetail
	sc := Scenario{Workflow: table1Workflow(wfgen.Epigenomics, 0), Workers: 2}
	cfg := randomCfg(v, stats.NewRNG(5))
	names := []string{"des.engine_runs", "des.events_fired", "des.events_removed", "flow.solves", "flow.solve_iterations"}
	read := func() []int64 {
		out := make([]int64, len(names))
		for i, n := range names {
			out[i] = obs.Default().Counter(n).Value()
		}
		return out
	}
	before := read()
	if _, err := Simulate(v, cfg, sc); err != nil {
		t.Fatal(err)
	}
	fresh := read()
	r, err := NewRunner(v, sc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	reused := read()
	for i, name := range names {
		one := fresh[i] - before[i]
		if one <= 0 && name != "des.events_removed" {
			t.Errorf("%s: a fresh run published %d", name, one)
		}
		if got := reused[i] - fresh[i]; got != n*one {
			t.Errorf("%s: %d reused runs published %d, want %d × %d", name, n, got, n, one)
		}
	}
}

// TestRunnerRunAllocationFree is the noise-free performance gate: a
// warmed Runner simulates without allocating.
func TestRunnerRunAllocationFree(t *testing.T) {
	v := HighestDetail
	for _, app := range []wfgen.App{wfgen.Montage, wfgen.Epigenomics} {
		r, err := NewRunner(v, Scenario{Workflow: table1Workflow(app, 1), Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(11)
		cfgs := []Config{randomCfg(v, rng), randomCfg(v, rng), randomCfg(v, rng)}
		for _, cfg := range cfgs { // warm every buffer to its high-water mark
			if _, err := r.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := r.Run(cfgs[i%len(cfgs)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: warmed Runner.Run allocates %v times per run, want 0", app, allocs)
		}
	}
}

func TestNewRunnerRejectsBadScenarios(t *testing.T) {
	wf := workflow.New("w")
	wf.AddTask(&workflow.Task{Name: "t", Work: 1, Inputs: []string{"ghost"}})
	if _, err := NewRunner(LowestDetail, Scenario{Workflow: wf, Workers: 1}); err == nil || !strings.Contains(err.Error(), "missing file") {
		t.Errorf("missing input file: err = %v", err)
	}
	dup := &workflow.Workflow{Tasks: []*workflow.Task{{Name: "t"}, {Name: "t"}}}
	if _, err := NewRunner(LowestDetail, Scenario{Workflow: dup, Workers: 1}); err == nil || !strings.Contains(err.Error(), "duplicate task") {
		t.Errorf("duplicate task: err = %v", err)
	}
}
