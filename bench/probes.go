package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/mpisim"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// Probes measure one layer on its own by calling its public functions
// directly, after the traced repetition, on inputs that repetition
// produced. They give the cost split a span cannot: the program has no
// boundary the benchmark could wrap between the loss aggregation and
// the simulator it calls, or inside the frame codec.

// probePoints is how many history points the simulator probes
// re-evaluate.
const probePoints = 32

func firstPoints(history []core.Sample) []core.Point {
	n := min(probePoints, len(history))
	pts := make([]core.Point, n)
	for i := range pts {
		pts[i] = history[i].Point
	}
	return pts
}

// splitEvaluator times, point by point, the simulator calls the loss
// evaluator makes (simulate) and the whole evaluator, and returns the
// median simulate time and the median of the paired differences: what
// the evaluator spends outside the simulator (decode, error terms,
// aggregation). That is a difference of two nearly equal numbers, so
// the two are timed back to back on the same point, and which goes
// first alternates: whichever runs second finds the caches warm.
func splitEvaluator(ev core.Evaluator, pts []core.Point, simulate func(core.Point) error) (simMS, restUS float64, err error) {
	timed := func(f func() error) (time.Duration, error) {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
	var sims, rests []float64
	for i, p := range pts {
		steps := []func() error{
			func() error { return simulate(p) },
			func() error { _, err := ev(context.Background(), p); return err },
		}
		var d [2]time.Duration
		for k := range steps {
			which := (k + i) % 2
			if d[which], err = timed(steps[which]); err != nil {
				return 0, 0, err
			}
		}
		sims = append(sims, float64(d[0])/1e6)
		rests = append(rests, float64(d[1]-d[0])/1e3)
	}
	return p50(sims), p50(rests), nil
}

// wfProbe splits the workflow loss evaluator's time per evaluation into
// Σ wfsim.Simulate over the dataset's groups and the rest.
func wfProbe(v wfsim.Version, ds *groundtruth.WFDataset, pts []core.Point) (map[string]float64, error) {
	scenarios := make([]wfsim.Scenario, len(ds.Groups))
	for i, g := range ds.Groups {
		scenarios[i] = wfsim.Scenario{Workflow: wfgen.Generate(g.Spec), Workers: g.Workers}
	}
	simMS, restUS, err := splitEvaluator(loss.WFEvaluator(v, loss.WFL1, ds), pts, func(p core.Point) error {
		cfg := v.DecodeConfig(p)
		for _, sc := range scenarios {
			if _, err := wfsim.Simulate(v, cfg, sc); err != nil {
				return err
			}
		}
		return nil
	})
	return map[string]float64{"wfsim.simulate_ms_per_eval": simMS, "loss.aggregate_us_per_eval": restUS}, err
}

// mpiProbe is wfProbe for the MPI case.
func mpiProbe(v mpisim.Version, ds *groundtruth.MPIDataset, pts []core.Point) (map[string]float64, error) {
	simMS, restUS, err := splitEvaluator(loss.MPIEvaluator(v, loss.MPIL1, ds, mpiEvalRounds), pts, func(p core.Point) error {
		cfg := v.DecodeConfig(p)
		for _, m := range ds.Measurements {
			if _, err := mpisim.Simulate(v, cfg, mpisim.Scenario{
				Benchmark: m.Benchmark, Nodes: m.Nodes, MsgBytes: m.MsgBytes, Rounds: mpiEvalRounds,
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return map[string]float64{"mpisim.simulate_ms_per_eval": simMS, "loss.aggregate_us_per_eval": restUS}, err
}

// frameProbe times the codec on the two frames one evaluation costs:
// its lease and its result. The reported values are per evaluation
// (lease + result), each the mean of n rounds.
func frameProbe(spec []byte, p core.Point) (map[string]float64, error) {
	const n = 2000
	pt := make(map[string]dist.WireFloat, len(p))
	for k, v := range p {
		pt[k] = dist.WireFloat(v)
	}
	frames := []*dist.Frame{
		{Type: dist.TypeLease, Lease: &dist.LeaseMsg{ID: 12345, Index: 12344, Spec: spec, Point: pt}},
		{Type: dist.TypeResult, Result: &dist.ResultMsg{ID: 12345, Index: 12344, Loss: 0.123456789}},
	}
	var encNS, decNS time.Duration
	for _, f := range frames {
		buf, err := dist.EncodeFrame(f)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := dist.EncodeFrame(f); err != nil {
				return nil, err
			}
		}
		encNS += time.Since(start)
		r := bytes.NewReader(buf)
		start = time.Now()
		for i := 0; i < n; i++ {
			r.Reset(buf)
			if _, err := dist.DecodeFrame(r); err != nil {
				return nil, err
			}
		}
		decNS += time.Since(start)
	}
	return map[string]float64{
		"dist.frame_encode_us": float64(encNS) / 1e3 / n,
		"dist.frame_decode_us": float64(decNS) / 1e3 / n,
	}, nil
}

// cacheHitProbe times Cache.Do on keys that are already present, in
// blocks of 64 so the clock reads do not dominate a sub-microsecond
// call; the result is the median block's time per hit.
func cacheHitProbe() (float64, error) {
	const keys, block = 4096, 64
	c := cache.New(nil)
	ks := make([]cache.Key, keys)
	for i := range ks {
		ks[i] = cache.NewKey("bench/probe", []float64{float64(i) / keys, 0.5, 0.25})
		if _, _, err := c.Do(context.Background(), ks[i], func() (float64, error) { return float64(i), nil }); err != nil {
			return 0, err
		}
	}
	var perHitUS []float64
	for lo := 0; lo < keys; lo += block {
		start := time.Now()
		for _, k := range ks[lo : lo+block] {
			if _, hit, err := c.Do(context.Background(), k, nil); err != nil || !hit {
				return 0, fmt.Errorf("bench: cache probe missed a present key (err=%v)", err)
			}
		}
		perHitUS = append(perHitUS, float64(time.Since(start))/1e3/block)
	}
	return p50(perHitUS), nil
}

// obsProbe is the ROADMAP's observer overhead as a number: the same
// in-process null calibration with the repo's obs observer (registry +
// tracer to io.Discard) and with none; the differences per evaluation.
func obsProbe(seed int64) (map[string]float64, error) {
	const evals = 20000
	space := nullSpace()
	run := func(o core.Observer) (us, allocs float64, err error) {
		cal := core.Calibrator{
			Space: space, Simulator: newNullSim(space), Algorithm: opt.Random{Batch: 16},
			MaxEvaluations: evals, Workers: 2, Seed: seed, Observer: o,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := cal.Run(context.Background()); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		return float64(d) / 1e3 / evals, float64(after.Mallocs-before.Mallocs) / evals, nil
	}
	// Warm both paths once, then measure.
	var res [2][2]float64
	for round := 0; round < 2; round++ {
		for i, o := range []core.Observer{nil, core.NewObsObserver(obs.NewRegistry(), obs.NewTracer(io.Discard))} {
			us, allocs, err := run(o)
			if err != nil {
				return nil, err
			}
			res[i] = [2]float64{us, allocs}
		}
	}
	return map[string]float64{
		"obs.observer_us_per_eval":     res[1][0] - res[0][0],
		"obs.observer_allocs_per_eval": res[1][1] - res[0][1],
	}, nil
}
