package batch

import (
	"fmt"
	"math"

	"simcal/internal/stats"
)

// WorkloadSpec parameterizes the synthetic PWA-style workload generator.
// The distributions follow the classic Feitelson observations: Poisson
// arrivals, log-normally distributed runtimes, power-of-two-leaning
// processor counts, and requested times overestimating runtimes by a
// wide margin.
type WorkloadSpec struct {
	// Jobs is the number of jobs to generate.
	Jobs int
	// Procs is the cluster size jobs are sized against.
	Procs int
	// ArrivalRate is the mean job arrival rate in jobs/second.
	ArrivalRate float64
	// MedianRuntime is the median job runtime in seconds (default 600).
	MedianRuntime float64
	// RuntimeSigma is the log-normal shape parameter (default 1.2).
	RuntimeSigma float64
	// Seed makes generation deterministic.
	Seed int64
}

// GenerateWorkload produces a synthetic job log. It panics on invalid
// specs — workload specs are programmer input.
func GenerateWorkload(spec WorkloadSpec) []Job {
	if spec.Jobs <= 0 || spec.Procs <= 0 || spec.ArrivalRate <= 0 {
		panic(fmt.Sprintf("batch: invalid workload spec %+v", spec))
	}
	median := spec.MedianRuntime
	if median <= 0 {
		median = 600
	}
	sigma := spec.RuntimeSigma
	if sigma <= 0 {
		sigma = 1.2
	}
	rng := stats.NewRNG(spec.Seed)
	jobs := make([]Job, 0, spec.Jobs)
	t := 0.0
	maxExp := int(math.Floor(math.Log2(float64(spec.Procs))))
	for i := 1; i <= spec.Jobs; i++ {
		// Poisson arrivals → exponential inter-arrival times.
		t += -math.Log(1-rng.Float64()) / spec.ArrivalRate
		// Runtime: log-normal around the median.
		run := median * math.Exp(rng.Normal(0, sigma))
		if run < 1 {
			run = 1
		}
		// Processors: power of two with geometric-ish exponent, plus
		// occasional odd sizes.
		exp := 0
		for exp < maxExp && rng.Float64() < 0.45 {
			exp++
		}
		procs := 1 << exp
		if rng.Float64() < 0.15 && procs > 1 {
			procs-- // some jobs use non-power-of-two allocations
		}
		if procs > spec.Procs {
			procs = spec.Procs
		}
		// Requested time: a wide overestimate, as users do.
		req := run * rng.Uniform(1.2, 5)
		jobs = append(jobs, Job{
			ID:        i,
			Submit:    math.Round(t),
			Runtime:   math.Round(run),
			Requested: math.Ceil(req),
			Procs:     procs,
		})
	}
	return jobs
}

// TotalWork returns Σ runtime × procs over the jobs (proc-seconds) —
// a load measure for sizing experiments.
func TotalWork(jobs []Job) float64 {
	s := 0.0
	for _, j := range jobs {
		s += float64(j.Runtime * float64(j.Procs))
	}
	return s
}
