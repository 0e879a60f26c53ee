package core_test

import (
	"context"
	"fmt"
	"math"

	"simcal/internal/core"
	"simcal/internal/opt"
	"simcal/internal/stats"
)

// ExampleCalibrator calibrates a simulator's parameters against
// ground-truth measurements. The "simulator" is an analytic model of a
// file transfer (latency + size/bandwidth), and the ground truth comes
// from a hidden true parameterization plus noise. The three framework
// steps: define the parameter space, define the loss (which invokes the
// simulator over all ground-truth points), then pick an algorithm and
// budget and run.
func ExampleCalibrator() {
	// Hidden truth: 120 MB/s effective bandwidth, 8 ms setup latency.
	const trueBW, trueLat = 120e6, 0.008

	// Ground truth: measured durations of transfers of various sizes,
	// with 3% measurement noise.
	rng := stats.NewRNG(42)
	sizes := []float64{1e6, 4e6, 16e6, 64e6, 256e6}
	measured := make([]float64, len(sizes))
	for i, s := range sizes {
		measured[i] = (trueLat + s/trueBW) * rng.NoisyScale(0.03)
	}

	// Step 1 — parameter ranges (deliberately broad: the user rarely
	// knows effective values; bandwidth is searched in exponent space).
	space := core.Space{
		{Name: "bandwidth", Kind: core.Exponential, Min: 20, Max: 32}, // 1 MB/s … 4 GB/s
		{Name: "latency", Kind: core.Continuous, Min: 0, Max: 0.1},
	}

	// Step 2 — loss: average relative error between simulated and
	// measured durations over the whole ground-truth set.
	simulate := func(p core.Point, size float64) float64 {
		return p["latency"] + size/p["bandwidth"]
	}
	lossFn := core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
		sum := 0.0
		for i, s := range sizes {
			sum += stats.RelError(measured[i], simulate(p, s))
		}
		return sum / float64(len(sizes)), nil
	})

	// Step 3 — algorithm and budget.
	cal := &core.Calibrator{
		Space:          space,
		Simulator:      lossFn,
		Algorithm:      opt.NewBOGP(), // or opt.Random{}, opt.Grid{}, ...
		MaxEvaluations: 200,           // and/or a wall-clock Budget
		Workers:        4,
		Seed:           1,
	}
	res, err := cal.Run(context.Background())
	if err != nil {
		panic(err)
	}

	fmt.Printf("evaluations: %d\n", res.Evaluations)
	fmt.Printf("best loss:   %.4f (avg relative duration error)\n", res.Best.Loss)
	fmt.Printf("calibrated bandwidth: %.1f MB/s (truth %.1f)\n", res.Best.Point["bandwidth"]/1e6, trueBW/1e6)
	fmt.Printf("calibrated latency:   %.2f ms  (truth %.2f)\n", res.Best.Point["latency"]*1e3, trueLat*1e3)

	bwErr := math.Abs(res.Best.Point["bandwidth"]-trueBW) / trueBW
	if bwErr < 0.15 {
		fmt.Println("recovered the hidden bandwidth within 15% — calibration succeeded")
	} else {
		fmt.Printf("bandwidth off by %.0f%% — try a larger budget\n", 100*bwErr)
	}
	// Output:
	// evaluations: 200
	// best loss:   0.0150 (avg relative duration error)
	// calibrated bandwidth: 120.1 MB/s (truth 120.0)
	// calibrated latency:   8.73 ms  (truth 8.00)
	// recovered the hidden bandwidth within 15% — calibration succeeded
}

// Example_syntheticBenchmarking brings a custom simulator to the paper's
// full methodology, including synthetic benchmarking (Section 3) to
// choose the loss-function/algorithm pair before spending a real
// calibration budget. The simulator is an M/M/1-style queueing model of
// a service whose arrival rate is known; its service rate and a fixed
// network delay are calibrated. Each candidate pair recovers a planted
// calibration, the pair with the lowest calibration error wins, and the
// winner then calibrates against noisy "real" measurements.
func Example_syntheticBenchmarking() {
	// queueSim predicts the mean response time of an M/M/1 queue plus a
	// fixed network delay at one arrival rate.
	queueSim := func(p core.Point, arrival float64) float64 {
		mu := p["service_rate"]
		if mu <= arrival {
			return 1e6 // saturated: report an enormous response time
		}
		return 1/(mu-arrival) + p["net_delay"]
	}
	// lossFn compares simulated against observed response times with
	// avg or max aggregation.
	lossFn := func(arrivals, observed []float64, aggregate string) core.Evaluator {
		return func(_ context.Context, p core.Point) (float64, error) {
			var errs []float64
			for i, a := range arrivals {
				errs = append(errs, stats.RelError(observed[i], queueSim(p, a)))
			}
			if aggregate == "max" {
				return stats.Max(errs), nil
			}
			return stats.Mean(errs), nil
		}
	}
	space := core.Space{
		{Name: "service_rate", Kind: core.Continuous, Min: 1, Max: 500},
		{Name: "net_delay", Kind: core.Continuous, Min: 0, Max: 1},
	}
	arrivals := []float64{10, 40, 70, 100, 130}

	// Step 1: synthetic benchmarking against a noise-free planted truth.
	planted := core.Point{"service_rate": 150, "net_delay": 0.05}
	synthetic := make([]float64, len(arrivals))
	for i, a := range arrivals {
		synthetic[i] = queueSim(planted, a)
	}
	type pair struct {
		alg  core.Algorithm
		loss string
	}
	pairs := []pair{
		{opt.Random{}, "avg"}, {opt.Random{}, "max"},
		{opt.NewBOGP(), "avg"}, {opt.NewBOGP(), "max"},
	}
	best := pair{}
	bestErr := -1.0
	fmt.Println("synthetic benchmarking (calibration error, lower is better):")
	for _, pr := range pairs {
		cal := &core.Calibrator{
			Space:          space,
			Simulator:      lossFn(arrivals, synthetic, pr.loss),
			Algorithm:      pr.alg,
			MaxEvaluations: 120,
			Workers:        4,
			Seed:           1,
		}
		res, err := cal.Run(context.Background())
		if err != nil {
			panic(err)
		}
		ce := core.CalibrationError(space, res.Best.Point, planted)
		fmt.Printf("  %-6s / %-3s : %7.2f\n", pr.alg.Name(), pr.loss, ce)
		if bestErr < 0 || ce < bestErr {
			bestErr, best = ce, pr
		}
	}
	fmt.Printf("selected pair: %s / %s\n\n", best.alg.Name(), best.loss)

	// Step 2: calibrate against the real (noisy) measurements.
	truth := core.Point{"service_rate": 180, "net_delay": 0.02}
	rng := stats.NewRNG(99)
	observed := make([]float64, len(arrivals))
	for i, a := range arrivals {
		observed[i] = queueSim(truth, a) * rng.NoisyScale(0.05)
	}
	cal := &core.Calibrator{
		Space:          space,
		Simulator:      lossFn(arrivals, observed, best.loss),
		Algorithm:      best.alg,
		MaxEvaluations: 200,
		Workers:        4,
		Seed:           2,
	}
	res, err := cal.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("real calibration: loss %.4f\n", res.Best.Loss)
	fmt.Printf("  service_rate = %.1f (truth %.1f)\n", res.Best.Point["service_rate"], truth["service_rate"])
	fmt.Printf("  net_delay    = %.4f (truth %.4f)\n", res.Best.Point["net_delay"], truth["net_delay"])
	// Output:
	// synthetic benchmarking (calibration error, lower is better):
	//   RAND   / avg :   30.53
	//   RAND   / max :   70.26
	//   BO-GP  / avg :    6.04
	//   BO-GP  / max :   21.02
	// selected pair: BO-GP / avg
	//
	// real calibration: loss 0.0260
	//   service_rate = 170.1 (truth 180.0)
	//   net_delay    = 0.0182 (truth 0.0200)
}

// ExampleSpace_Decode shows how unit-cube coordinates map to parameter
// values, including exponential (2^x) parameters.
func ExampleSpace_Decode() {
	space := core.Space{
		{Name: "bandwidth", Kind: core.Exponential, Min: 20, Max: 30},
		{Name: "latency", Kind: core.Continuous, Min: 0, Max: 0.01},
		{Name: "slots", Kind: core.Integer, Min: 1, Max: 9},
	}
	p := space.Decode([]float64{0.5, 0.5, 0.5})
	fmt.Printf("bandwidth: %.0f\n", p["bandwidth"])
	fmt.Printf("latency:   %.3f\n", p["latency"])
	fmt.Printf("slots:     %.0f\n", p["slots"])
	// Output:
	// bandwidth: 33554432
	// latency:   0.005
	// slots:     5
}

// ExampleCalibrationError shows the synthetic-benchmarking metric: the
// range-normalized L1 distance to a planted calibration, in percent.
func ExampleCalibrationError() {
	space := core.Space{
		{Name: "a", Kind: core.Continuous, Min: 0, Max: 10},
		{Name: "b", Kind: core.Continuous, Min: 0, Max: 10},
	}
	truth := core.Point{"a": 2, "b": 8}
	got := core.Point{"a": 3, "b": 8} // one dimension off by 10% of range
	fmt.Printf("%.0f%%\n", core.CalibrationError(space, got, truth))
	// Output:
	// 10%
}
