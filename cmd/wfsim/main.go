// Command wfsim runs the case-study-#1 workflow simulator on one
// benchmark configuration and prints the simulated makespan (and,
// optionally, per-task times).
//
// Usage:
//
//	wfsim -app epigenomics -tasks 43 -work 1.15 -data 1500 -nodes 4
//	wfsim -input workflow.json -nodes 2 -network star -storage all -compute htcondor
//	wfsim -app montage -tasks 60 -tasktimes
//
// Without explicit parameter flags the simulator uses the repository's
// reference ("true") parameter values.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"simcal/internal/groundtruth"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
	"simcal/internal/workflow"
)

func main() {
	var (
		app       = flag.String("app", "epigenomics", "benchmark application (epigenomics, 1000genome, soykb, montage, seismology, chain, forkjoin)")
		tasks     = flag.Int("tasks", 43, "workflow size in tasks")
		work      = flag.Float64("work", 1.15, "sequential work per task in seconds")
		dataMB    = flag.Float64("data", 1500, "total data footprint in MB")
		input     = flag.String("input", "", "WfCommons-style JSON workflow (overrides -app/-tasks/-work/-data)")
		nodes     = flag.Int("nodes", 4, "number of worker nodes")
		network   = flag.String("network", "star", "network level of detail: one-link, star, series")
		storage   = flag.String("storage", "all", "storage level of detail: submit, all")
		compute   = flag.String("compute", "htcondor", "compute level of detail: direct, htcondor")
		taskTimes = flag.Bool("tasktimes", false, "print per-task walltimes")
		gantt     = flag.Bool("gantt", false, "print a text Gantt chart of the schedule")
	)
	flag.Parse()

	var wf *workflow.Workflow
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		wf, err = workflow.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		wf = wfgen.Generate(wfgen.Spec{
			App:            wfgen.App(*app),
			Tasks:          *tasks,
			WorkSeconds:    *work,
			FootprintBytes: *dataMB * wfgen.MB,
		})
	}

	v, err := simspec.ParseWFVersion(*network, *storage, *compute)
	if err != nil {
		fatal(err)
	}
	cfg := groundtruth.WorkflowTruth
	res, err := wfsim.Simulate(v, cfg, wfsim.Scenario{Workflow: wf, Workers: *nodes})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workflow:  %s (%d tasks)\n", wf.Name, wf.Size())
	fmt.Printf("version:   %s\n", v.Name())
	fmt.Printf("workers:   %d\n", *nodes)
	fmt.Printf("makespan:  %.3f s\n", res.Makespan)
	if *gantt {
		fmt.Print(wfsim.RenderGantt(res.Trace, 100))
	}
	if *taskTimes {
		names := make([]string, 0, len(res.TaskTimes))
		for n := range res.TaskTimes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-30s %.3f s\n", n, res.TaskTimes[n])
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfsim:", err)
	os.Exit(1)
}
