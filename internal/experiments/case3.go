package experiments

import (
	"context"

	"simcal/internal/batch"
	"simcal/internal/core"
	"simcal/internal/stats"
)

// batchStudy is case study #3, batch scheduling — the methodology applied
// to the paper's announced future-work domain (Alea/Batsim-style batch
// scheduling with PWA workloads): versions are scored by the percent
// relative error of per-job turnaround times over one simulated log.
var batchStudy = study[batch.Version, *batch.GroundTruth]{
	cacheKey: "case3",
	evaluator: func(_ Options, v batch.Version, gt *batch.GroundTruth) (core.Simulator, error) {
		return batch.Evaluator(v, gt), nil
	},
	score: func(_ Options, v batch.Version, p core.Point, gt *batch.GroundTruth) ([]float64, error) {
		sim, err := batch.Simulate(v.Policy, v.DecodeConfig(p, gt.Procs), gt.Jobs)
		if err != nil {
			return nil, err
		}
		var errs []float64
		for _, j := range gt.Jobs {
			errs = append(errs, 100*stats.RelError(gt.MeanTurnaround[j.ID], sim.Ends[j.ID]-j.Submit))
		}
		return errs, nil
	},
	executions: func(*batch.GroundTruth) int { return 1 },
}

// CaseStudy3 generates a PWA-style ground-truth job log on the reference
// EASY cluster, calibrates all four simulator versions, and reports the
// percent relative error of per-job turnaround times.
func CaseStudy3(ctx context.Context, o Options) (*LoDResult, error) {
	spec := batch.WorkloadSpec{Jobs: 80, Procs: 64, ArrivalRate: 0.03, Seed: o.Seed + 100}
	gt, err := batch.GenerateGroundTruth(spec, o.Reps, o.Seed)
	if err != nil {
		return nil, err
	}
	return batchStudy.sweep(ctx, o, "casestudy3", batch.AllVersions(), gt, gt, "batch")
}
