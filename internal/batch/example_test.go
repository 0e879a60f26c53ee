package batch_test

import (
	"context"
	"fmt"

	"simcal/internal/batch"
	"simcal/internal/core"
	"simcal/internal/opt"
	"simcal/internal/stats"
)

// Example shows EASY backfilling in action: a short narrow job jumps a
// blocked wide job without delaying it.
func Example() {
	jobs := []batch.Job{
		{ID: 1, Submit: 0, Runtime: 100, Requested: 100, Procs: 4}, // running
		{ID: 2, Submit: 1, Runtime: 10, Requested: 10, Procs: 8},   // blocked head
		{ID: 3, Submit: 2, Runtime: 10, Requested: 10, Procs: 2},   // backfill candidate
	}
	cfg := batch.Config{Procs: 8, SpeedScale: 1}

	fcfs, _ := batch.Simulate(batch.FCFS, cfg, jobs)
	easy, _ := batch.Simulate(batch.EASY, cfg, jobs)
	fmt.Printf("FCFS: job 3 starts at t=%.0f\n", fcfs.Starts[3])
	fmt.Printf("EASY: job 3 starts at t=%.0f (backfilled)\n", easy.Starts[3])
	fmt.Printf("EASY head job undelayed: %v\n", easy.Starts[2] == fcfs.Starts[2])
	// Output:
	// FCFS: job 3 starts at t=110
	// EASY: job 3 starts at t=2 (backfilled)
	// EASY head job undelayed: true
}

// ExampleGenerateWorkload generates a PWA-style job log and schedules
// it with FCFS and with EASY backfilling.
func ExampleGenerateWorkload() {
	const procs = 64
	jobs := batch.GenerateWorkload(batch.WorkloadSpec{Jobs: 100, Procs: procs, ArrivalRate: 0.03, Seed: 1})
	for _, pol := range []batch.Policy{batch.FCFS, batch.EASY} {
		res, err := batch.Simulate(pol, batch.Config{Procs: procs, SpeedScale: 1}, jobs)
		if err != nil {
			panic(err)
		}
		var waits, slowdowns []float64
		for _, j := range jobs {
			waits = append(waits, res.Waits[j.ID])
			slowdowns = append(slowdowns, res.BoundedSlowdown(j))
		}
		fmt.Printf("jobs:              %d on %d processors (%s)\n", len(jobs), procs, pol)
		fmt.Printf("makespan:          %.0f s\n", res.Makespan)
		fmt.Printf("mean wait:         %.0f s (median %.0f, max %.0f)\n",
			stats.Mean(waits), stats.Median(waits), stats.Max(waits))
		fmt.Printf("bounded slowdown:  mean %.2f (median %.2f, max %.2f)\n",
			stats.Mean(slowdowns), stats.Median(slowdowns), stats.Max(slowdowns))
	}
	// Output:
	// jobs:              100 on 64 processors (fcfs)
	// makespan:          9339 s
	// mean wait:         115 s (median 0, max 1608)
	// bounded slowdown:  mean 1.19 (median 1.00, max 9.03)
	// jobs:              100 on 64 processors (easy)
	// makespan:          8263 s
	// mean wait:         67 s (median 0, max 1697)
	// bounded slowdown:  mean 1.11 (median 1.00, max 4.46)
}

// Example_calibration carries the methodology into batch scheduling, the
// domain the paper's conclusion names next: generate a job log, run it
// on a reference EASY-backfilling cluster with hidden parameters and
// noise, then calibrate simulator versions at three levels of detail and
// compare, the same experiment shape as the paper's Figures 2 and 5.
func Example_calibration() {
	spec := batch.WorkloadSpec{Jobs: 80, Procs: 64, ArrivalRate: 0.03, Seed: 21}
	gt, err := batch.GenerateGroundTruth(spec, 5, 3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ground truth: %d jobs on %d processors, 5 repetitions\n", len(gt.Jobs), gt.Procs)

	for _, v := range []batch.Version{
		{Policy: batch.FCFS, Detail: batch.NoOverheads},
		{Policy: batch.EASY, Detail: batch.NoOverheads},
		{Policy: batch.EASY, Detail: batch.WithOverheads},
	} {
		cal := &core.Calibrator{
			Space:          v.Space(),
			Simulator:      batch.Evaluator(v, gt),
			Algorithm:      opt.NewBOGP(),
			MaxEvaluations: 200,
			Workers:        4,
			Seed:           1,
		}
		res, err := cal.Run(context.Background())
		if err != nil {
			panic(err)
		}
		fmt.Printf("\nversion %-22s (%d parameters)\n", v.Name(), v.Space().Dim())
		fmt.Printf("  calibrated loss (avg rel. turnaround error): %.4f\n", res.Best.Loss)
		fmt.Printf("  calibrated point: %s\n", res.Best.Point)
	}
	fmt.Println("\nexpected ordering: easy/with-overheads < easy/no-overheads < fcfs —")
	fmt.Println("the reference system backfills and has real dispatch costs, so both")
	fmt.Println("the policy and the middleware level of detail pay off, exactly as the")
	fmt.Println("methodology predicts for the other two case studies.")
	// Output:
	// ground truth: 80 jobs on 64 processors, 5 repetitions
	//
	// version fcfs/no-overheads      (1 parameters)
	//   calibrated loss (avg rel. turnaround error): 2.7029
	//   calibrated point: {speed_scale_exp: 4}
	//
	// version easy/no-overheads      (1 parameters)
	//   calibrated loss (avg rel. turnaround error): 0.0791
	//   calibrated point: {speed_scale_exp: 0.923354}
	//
	// version easy/with-overheads    (3 parameters)
	//   calibrated loss (avg rel. turnaround error): 0.0477
	//   calibrated point: {sched_interval: 32.4312, speed_scale_exp: 1.0213, startup_overhead: 25.5427}
	//
	// expected ordering: easy/with-overheads < easy/no-overheads < fcfs —
	// the reference system backfills and has real dispatch costs, so both
	// the policy and the middleware level of detail pay off, exactly as the
	// methodology predicts for the other two case studies.
}
