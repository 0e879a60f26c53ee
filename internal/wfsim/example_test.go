package wfsim_test

import (
	"fmt"

	"simcal/internal/groundtruth"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// ExampleSimulate runs one benchmark workflow on one level of detail at
// the reference ("true") parameter values and draws its schedule: '.'
// queued or middleware overhead, '<' stage-in, '#' compute, '>'
// stage-out.
func ExampleSimulate() {
	wf := wfgen.Generate(wfgen.Spec{
		App: wfgen.Forkjoin, Tasks: 8, WorkSeconds: 1.15, FootprintBytes: 1500 * wfgen.MB,
	})
	v := wfsim.Version{Network: wfsim.Star, Storage: wfsim.AllNodes, Compute: wfsim.HTCondor}
	sc := wfsim.Scenario{Workflow: wf, Workers: 2}
	res, err := wfsim.Simulate(v, groundtruth.WorkflowTruth, sc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("workflow:  %s (%d tasks)\n", wf.Name, wf.Size())
	fmt.Printf("version:   %s\n", v.Name())
	fmt.Printf("workers:   %d\n", sc.Workers)
	fmt.Printf("makespan:  %.3f s\n", res.Makespan)
	fmt.Print(wfsim.RenderGantt(res.Trace, 100))
	// Output:
	// workflow:  forkjoin-n8-w1.15-d1500MB (8 tasks)
	// version:   star/all-nodes/htcondor
	// workers:   2
	// makespan:  37.851 s
	// task          w   |----------------------------------------------------------------------------------------------------| t=[0, 37.85s]
	// fork_00_0000  0   |...<<<<<.###>>>>>..                                                                                 |
	// work_01_0000  0   |                  ....<<<<<<<<<<<<<<<<<<.###>>>>>>>>>>>>>>>>>>.                                     |
	// work_01_0001  1   |                  ....<<<<<<<<<<<<<<<<<<.###>>>>>>>>>>>>>>>>>>.                                     |
	// work_01_0002  0   |                  ....<<<<<<<<<<<<<<<<<<.###>>>>>>>>>>>>>>>>>>.                                     |
	// work_01_0003  1   |                  ....<<<<<<<<<<<<<<<<<<.###>>>>>>>>>>>>>>>>>>.                                     |
	// work_01_0004  0   |                  ....<<<<<<<<<<<<<<<<<<.###>>>>>>>>>>>>>>>>>>.                                     |
	// work_01_0005  1   |                  ....<<<<<<<<<<<<<<<<<<.###>>>>>>>>>>>>>>>>>>.                                     |
	// join_02_0000  0   |                                                              ....<<<<<<<<<<<<<<<<<<<<<<<<.###>>>>>.|
}
