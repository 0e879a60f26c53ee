package wfsim

import "simcal/internal/workflow"

// Scenario is one ground-truth data point to simulate: a workflow
// executed on a given number of workers.
type Scenario struct {
	Workflow *workflow.Workflow
	Workers  int
}

// Result reports a simulated execution.
type Result struct {
	// Makespan is the overall execution time in seconds.
	Makespan float64
	// TaskTimes maps each task name to its job walltime: from dispatch
	// (including middleware overheads and data staging) to completion.
	TaskTimes map[string]float64
	// Trace records per-task phase timestamps (one entry per task), for
	// schedule inspection and Gantt rendering.
	Trace []TaskTrace
}

// NoiseModel injects the stochastic effects of a real platform into the
// reference simulator that generates ground truth. All spreads are
// relative (0.05 = ~5%). A nil NoiseModel (the default for calibrated
// simulators) yields fully deterministic executions.
type NoiseModel struct {
	// Seed drives the noise stream; vary it across repetitions.
	Seed int64
	// WorkSpread perturbs each task's computational work.
	WorkSpread float64
	// OverheadSpread perturbs each middleware overhead occurrence.
	OverheadSpread float64
	// MachineSpread perturbs each worker's core speed and link bandwidth
	// (fixed per worker per run — hardware heterogeneity).
	MachineSpread float64
}

// Simulate runs one workflow execution under the version's level of
// detail and the given parameter values. It is deterministic unless
// cfg.Noise is set. Callers that simulate the same scenario many times
// (a calibration) should build one Runner and call Run instead: Simulate
// is exactly that, once, plus Result.
func Simulate(v Version, cfg Config, sc Scenario) (*Result, error) {
	r, err := NewRunner(v, sc)
	if err != nil {
		return nil, err
	}
	if _, err := r.Run(cfg); err != nil {
		return nil, err
	}
	return r.Result(), nil
}
