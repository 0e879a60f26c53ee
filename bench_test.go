// Package simcal's root benchmark harness: BenchmarkArtifact/<id> for
// every table and figure of the paper (see DESIGN.md's per-experiment
// index), plus microbenchmarks of the substrates the experiments are
// built on.
//
// The per-artifact benchmarks run each experiment at a reduced but
// shape-preserving scale (experiments.Default-like, further trimmed so a
// single iteration stays in the seconds range); `cmd/experiments -full`
// regenerates artifacts at paper scale.
package simcal

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/experiments"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/resilience"
	"simcal/internal/stats"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// benchOptions trims the default experiment scale so one benchmark
// iteration completes in seconds while preserving every comparison.
func benchOptions() experiments.Options {
	o := experiments.Default()
	o.MaxEvals = 60
	o.Restarts = 1
	o.TrainingBudget = 500 * time.Millisecond
	o.Workers = 2
	o.WFApps = []wfgen.App{wfgen.Epigenomics}
	o.WFSizeIdx = []int{0, 1}
	o.WFWorkIdx = []int{0, 3}
	o.WFFootIdx = []int{0, 1}
	o.WFWorkers = []int{1, 2}
	o.Reps = 2
	o.MPINodes = []int{4, 8}
	o.MPIMsgSizes = []float64{1 << 10, 1 << 16, 1 << 22}
	o.MPIRounds = 2
	return o
}

// artifactEvals trims MaxEvals further for the artifacts that run many
// calibrations per iteration.
var artifactEvals = map[string]int{
	"figure2": 40, "figure3": 30, "section55": 30,
	"table5": 40, "figure5": 30, "section65": 30,
}

// BenchmarkArtifact regenerates every row of experiments.Artifacts:
// `go test -bench 'BenchmarkArtifact/figure2$' .`
func BenchmarkArtifact(b *testing.B) {
	for _, a := range experiments.Artifacts {
		b.Run(a.ID, func(b *testing.B) {
			o := benchOptions()
			if n, ok := artifactEvals[a.ID]; ok {
				o.MaxEvals = n
			}
			for i := 0; i < b.N; i++ {
				if _, err := a.Run(context.Background(), o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkWorkflowSimulateSmall(b *testing.B) {
	wf := wfgen.Generate(wfgen.Spec{App: wfgen.Epigenomics, Tasks: 43, WorkSeconds: 1.15, FootprintBytes: 150 * wfgen.MB})
	cfg := wfsim.HighestDetail.DecodeConfig(groundtruth.WorkflowTruthPoint(wfsim.HighestDetail))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wfsim.Simulate(wfsim.HighestDetail, cfg, wfsim.Scenario{Workflow: wf, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkflowSimulateLarge(b *testing.B) {
	wf := wfgen.Generate(wfgen.Spec{App: wfgen.Seismology, Tasks: 515, WorkSeconds: 8.34, FootprintBytes: 15000 * wfgen.MB})
	cfg := wfsim.HighestDetail.DecodeConfig(groundtruth.WorkflowTruthPoint(wfsim.HighestDetail))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wfsim.Simulate(wfsim.HighestDetail, cfg, wfsim.Scenario{Workflow: wf, Workers: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPISimulatePingPong32(b *testing.B) {
	cfg := groundtruth.MPITruth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpisim.Simulate(groundtruth.MPIReferenceVersion, cfg, mpisim.Scenario{
			Benchmark: mpi.PingPong, Nodes: 32, MsgBytes: 1 << 16, Rounds: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPISimulateStencil128(b *testing.B) {
	cfg := groundtruth.MPITruth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpisim.Simulate(groundtruth.MPIReferenceVersion, cfg, mpisim.Scenario{
			Benchmark: mpi.Stencil, Nodes: 128, MsgBytes: 1 << 16, Rounds: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroundTruthGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := groundtruth.GenerateWorkflowData(groundtruth.WFOptions{
			Apps:    []wfgen.App{wfgen.Epigenomics},
			SizeIdx: []int{0}, WorkIdx: []int{1}, FootIdx: []int{1},
			Workers: []int{2}, Reps: 3, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// sphere is a cheap analytic loss for optimizer benchmarks.
func sphereEval(_ context.Context, p core.Point) (float64, error) {
	dx, dy, dz := p["x"]-1, p["y"]+2, p["z"]-3
	return dx*dx + dy*dy + dz*dz, nil
}

var benchSpace = core.Space{
	{Name: "x", Kind: core.Continuous, Min: -5, Max: 5},
	{Name: "y", Kind: core.Continuous, Min: -5, Max: 5},
	{Name: "z", Kind: core.Continuous, Min: -5, Max: 5},
}

// problemEvaluateAllocCeiling is the ceiling on allocations for one
// uninstrumented 512-evaluation calibration of the sphere function —
// the framework's own cost, nothing else allocates. It is what the
// per-batch worker pool cost before Evaluate became a barrier on the
// completion-driven engine (6.0 per evaluation x 512; the engine
// measures 4.4), so the merged path can never cost more allocations
// than the path it replaced.
const problemEvaluateAllocCeiling = 3072

// BenchmarkProblemEvaluate measures the per-evaluation cost of the
// framework's parallel evaluation path with instrumentation disabled
// (nil observer — must be indistinguishable from the pre-observability
// code path; fails itself above problemEvaluateAllocCeiling) and
// enabled (metrics registry + discarded JSONL trace).
func BenchmarkProblemEvaluate(b *testing.B) {
	calibrate := func(b *testing.B, observer core.Observer) func(int) {
		cal := &core.Calibrator{
			Space: benchSpace, Simulator: core.Evaluator(sphereEval),
			Algorithm: opt.Random{Batch: 16}, MaxEvaluations: 512, Workers: 2,
			Seed: 1, Observer: observer,
		}
		return func(int) {
			if _, err := cal.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("observer-disabled", func(b *testing.B) {
		benchAllocGate(b, problemEvaluateAllocCeiling, calibrate(b, nil))
	})
	b.Run("observer-enabled", func(b *testing.B) {
		b.ReportAllocs()
		run := calibrate(b, core.NewObsObserver(obs.NewRegistry(), obs.NewTracer(io.Discard)))
		for i := 0; i < b.N; i++ {
			run(i)
		}
	})
}

// remoteEvaluateAllocCeiling is the ceiling on allocations for
// BenchmarkRemoteEvaluate's calibration: problemEvaluateAllocCeiling's
// calibration with every evaluation leased to a loopback fleet, so on
// top of the engine's cost it counts the wire codec (a lease and a
// result frame per evaluation, each encoded and decoded), the worker's
// telemetry passenger and the coordinator's absorb of it. Measured on a
// 2-core x86-64 host: 69 700 (136 per evaluation) on the reflecting
// encoding/json codec with snapshot-diffing telemetry, 12 970–13 580
// (25.3–26.5) at GOMAXPROCS 1, 2 and 4 on the hand-written codec with
// handle-reading deltas, and 8 376–8 385 (16.4) at GOMAXPROCS 1, 2 and 4
// once a worker's lease runners outlived their leases, its histograms
// were read without a dump and the coordinator's lease and result frames
// stopped being allocated per evaluation, and 4 784–4 790 (9.35) at
// GOMAXPROCS 1, 2 and 4 once a calibration's leases shared one context
// watch and a worker decoded each lease into a frame a runner had handed
// back. The ceiling is 11.7 per evaluation, about 25 % above the last
// reading.
const remoteEvaluateAllocCeiling = 5990

// remoteEvaluateCachedAllocCeiling is the ceiling on allocations for
// BenchmarkRemoteEvaluate/cached: a fresh cache, then the calibration
// twice — 512 leased misses and 512 hits, the split simcald's
// cross-job cache sees on svc-wf-jobs. Measured on a 2-core x86-64
// host: 15 224–15 233 at GOMAXPROCS 1, 2 and 4 while every cached
// evaluation ran on a goroutine of its own that blocked in Cache.Do
// around the evaluator's blocking Run, and 13 208–13 211 once a hit
// settled inline on the driver goroutine and a miss was leased through
// RunAsync, and 9 625–9 629 once leases shared one context watch and a
// worker decoded each lease into a recycled frame. The ceiling is about
// 3 % above the highest reading.
const remoteEvaluateCachedAllocCeiling = 9920

// remoteEvaluateTimeoutAllocCeiling is the ceiling on allocations for
// BenchmarkRemoteEvaluate/timeout: the uncached calibration under the
// policy the conformance resilience shape uses, three attempts under a
// one-minute timeout that never fires. Each attempt's deadline is a
// context of its own, watched by the engine and by the fleet. Measured
// on a 2-core x86-64 host: 13 497 while every lease ran on a goroutine
// parked in the resilience executor, with one more goroutine, channel
// and timer context per attempt, and 10 453–10 454 at GOMAXPROCS 1, 2
// and 4 once the engine applied the policy as each attempt completed
// and leased through RunAsync. The ceiling is about 3 % above the
// highest reading. (The same policy without a timeout,
// BenchmarkRemoteEvaluate/resilient, costs no allocation per
// evaluation and is held to remoteEvaluateAllocCeiling.)
const remoteEvaluateTimeoutAllocCeiling = 10770

// BenchmarkRemoteEvaluate runs one 512-evaluation calibration of the
// sphere function per iteration on a loopback fleet of two workers of
// capacity two, whose coordinator keeps a registry as simcald's does:
// uncached, failing itself above remoteEvaluateAllocCeiling; twice on a
// fresh cache, failing itself above remoteEvaluateCachedAllocCeiling;
// under a three-attempt resilience policy, failing itself above
// remoteEvaluateAllocCeiling; and under that policy with a one-minute
// attempt timeout, failing itself above
// remoteEvaluateTimeoutAllocCeiling.
func BenchmarkRemoteEvaluate(b *testing.B) {
	lb := dist.NewLoopback()
	srv, err := dist.Serve(lb, "", dist.CoordinatorConfig{Name: "bench", Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	sphere := func([]byte) (core.Simulator, error) { return core.Evaluator(sphereEval), nil }
	workers, err := dist.StartWorkers(lb, srv.Addr(), 2, dist.WorkerConfig{Capacity: 2, Factory: sphere}, dist.SessionConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		srv.Close()
		workers.Close()
	}()
	coord := srv.Coord
	if err := coord.WaitForWorkers(context.Background(), 2); err != nil {
		b.Fatal(err)
	}
	cal := &core.Calibrator{
		Space: benchSpace, Simulator: coord.Evaluator([]byte(`{"case":"sphere"}`)),
		Algorithm: opt.Random{Batch: 16}, MaxEvaluations: 512, Seed: 1,
		CacheKey: "sphere",
	}
	run := func(b *testing.B) {
		if _, err := cal.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("uncached", func(b *testing.B) {
		benchAllocGate(b, remoteEvaluateAllocCeiling, func(int) { run(b) })
	})
	b.Run("cached", func(b *testing.B) {
		defer func() { cal.Cache = nil }()
		benchAllocGate(b, remoteEvaluateCachedAllocCeiling, func(int) {
			cal.Cache = cache.New(nil)
			run(b)
			run(b)
		})
	})
	b.Run("resilient", func(b *testing.B) {
		defer func() { cal.Resilience = nil }()
		cal.Resilience = &resilience.Policy{MaxAttempts: 3}
		benchAllocGate(b, remoteEvaluateAllocCeiling, func(int) { run(b) })
	})
	b.Run("timeout", func(b *testing.B) {
		defer func() { cal.Resilience = nil }()
		cal.Resilience = &resilience.Policy{Timeout: time.Minute, MaxAttempts: 3}
		benchAllocGate(b, remoteEvaluateTimeoutAllocCeiling, func(int) { run(b) })
	})
}

// wfEvaluateAllocCeiling is the recorded ceiling on allocations per
// workflow loss evaluation (16 simulations) once the evaluator's runner
// set is warm. Measured: 0. Before the reusable kernel: 86 021. The
// benchmark fails itself above the ceiling, which is what CI's
// bench-smoke job relies on — an allocation count repeats exactly, so
// this gate needs no tolerance for host noise.
const wfEvaluateAllocCeiling = 64

// BenchmarkWFEvaluate measures one workflow loss evaluation on the
// end-to-end benchmark's wf-rand-serial problem (bench/workloads.go:
// HighestDetail, L1, Epigenomics + Montage at SizeIdx 1, 16 groups),
// called serially on a warmed evaluator.
func BenchmarkWFEvaluate(b *testing.B) {
	ev, sp := wfEvaluateProblem(b)
	benchEvaluate(b, ev, sp, wfEvaluateAllocCeiling)
}

// wfEvaluateProblem is BenchmarkWFEvaluate's loss evaluator and space.
func wfEvaluateProblem(tb testing.TB) (core.Evaluator, core.Space) {
	ds, err := groundtruth.GenerateWorkflowData(groundtruth.WFOptions{
		Apps:    []wfgen.App{wfgen.Epigenomics, wfgen.Montage},
		SizeIdx: []int{1}, WorkIdx: []int{1, 3}, FootIdx: []int{1, 2},
		Workers: []int{2, 4}, Reps: 3, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	v := wfsim.HighestDetail
	return loss.WFEvaluator(v, loss.WFL1, ds), v.Space()
}

// mpiEvaluateAllocCeiling is wfEvaluateAllocCeiling for one MPI loss
// evaluation (9 simulations on one shared 8-node fat tree). Measured: 0.
// Before the reusable runner: 10 648.
const mpiEvaluateAllocCeiling = 64

// BenchmarkMPIEvaluate measures one MPI loss evaluation on the
// end-to-end benchmark's mpi-bogp-serial problem (bench/workloads.go:
// the reference version, L1, PingPong + PingPing + BiRandom at three
// message sizes on 8 nodes, 2 rounds), called serially on a warmed
// evaluator.
func BenchmarkMPIEvaluate(b *testing.B) {
	ds, err := groundtruth.GenerateMPIData(groundtruth.MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.PingPing, mpi.BiRandom},
		Nodes:      []int{8}, MsgSizes: []float64{1 << 10, 1 << 16, 1 << 22},
		Rounds: 2, Reps: 3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	v := groundtruth.MPIReferenceVersion
	benchEvaluate(b, loss.MPIEvaluator(v, loss.MPIL1, ds, 2), v.Space(), mpiEvaluateAllocCeiling)
}

// bogpIterationAllocCeiling is the ceiling on allocations for one warmed
// BO-GP iteration at the MaxFitPoints steady state — training set of
// 400 rows out of a longer history, refit, 512 candidates drawn and
// scored, 4 winners evaluated on a free loss function. Measured: 25 at
// GOMAXPROCS 2, 20 at 1 and 32 at 4 (28.5, 22 and 32.6 while the pool
// was scored in one pass that solved every candidate's variance) — the
// engine's evaluations, what leaves the iteration (history snapshot,
// the winners) and a goroutine per fit worker and per scoring pass with
// work for two workers, which is why the ceiling leaves room for a
// wider runner; the workers' scoring buffers are the GP's, kept across
// iterations. Before the candidate pool and the training-set buffers
// were reused: 848.
const bogpIterationAllocCeiling = 96

// BenchmarkBOGPIteration runs one BO-GP calibration per iteration and
// counts allocations from inside the evaluator, between the first
// evaluation of proposal batch 110 and that of batch 150 (history 448
// to 608 rows: every fit is at n = 400), so the gate sees warmed
// iterations only. It fails itself above bogpIterationAllocCeiling.
func BenchmarkBOGPIteration(b *testing.B) {
	const first, last, batch = 448, 608, 4
	for i := 0; i < b.N; i++ {
		var at [2]runtime.MemStats
		n := 0
		cal := &core.Calibrator{
			Space: benchSpace,
			Simulator: core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
				switch n++; n - 1 { // Workers is 1: evaluations run one at a time
				case first:
					runtime.ReadMemStats(&at[0])
				case last:
					runtime.ReadMemStats(&at[1])
				}
				return sphereEval(ctx, p)
			}),
			Algorithm: opt.NewBOGP(), MaxEvaluations: last + batch, Workers: 1, Seed: 21,
		}
		if _, err := cal.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		perIter := float64(at[1].Mallocs-at[0].Mallocs) / ((last - first) / batch)
		b.ReportMetric(perIter, "allocs/iteration")
		if perIter > bogpIterationAllocCeiling {
			b.Fatalf("%.0f allocs per warmed BO-GP iteration, ceiling %d", perIter, bogpIterationAllocCeiling)
		}
	}
}

// asyncBOEvaluationAllocCeiling is the ceiling on allocations for one
// warmed async-bo evaluation at two workers on a free loss function: a
// refit on the completed history plus one fantasy row per in-flight
// point, 512 candidates drawn and scored, the winner submitted and run.
// Measured, one GOMAXPROCS per process: 10.0 at 2, 6.5 at 1, 14.0 at 4
// and 18.9 at 8 (11.0, 7.5, 15.0 and 20.2 while the worker idle-time
// queue was kept, and reallocated on every append, without an
// AsyncObserver to read it) —
// the engine's evaluation, what leaves the proposal (the winner, the
// history row) and a goroutine per extra fit and scoring worker, which
// is why the ceiling leaves room for a wider runner.
const asyncBOEvaluationAllocCeiling = 32

// BenchmarkAsyncBOEvaluation runs one async-bo calibration at two
// workers per iteration and counts allocations from inside the
// evaluator, between the starts of evaluations 272 and 400: the GP's
// buffers have grown past the training sets of that window before it
// opens, and every fit in it extends the last, below MaxFitPoints. It
// fails itself above asyncBOEvaluationAllocCeiling.
func BenchmarkAsyncBOEvaluation(b *testing.B) {
	const first, last = 272, 400
	for i := 0; i < b.N; i++ {
		var at [2]runtime.MemStats
		var n atomic.Int64
		cal := &core.Calibrator{
			Space: benchSpace,
			Simulator: core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
				switch n.Add(1) - 1 {
				case first:
					runtime.ReadMemStats(&at[0])
				case last:
					runtime.ReadMemStats(&at[1])
				}
				return sphereEval(ctx, p)
			}),
			Algorithm: opt.NewAsyncBO(), MaxEvaluations: last + 2, Workers: 2, Seed: 21,
		}
		if _, err := cal.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		perEval := float64(at[1].Mallocs-at[0].Mallocs) / (last - first)
		b.ReportMetric(perEval, "allocs/eval")
		if perEval > asyncBOEvaluationAllocCeiling {
			b.Fatalf("%.1f allocs per warmed async-bo evaluation, ceiling %d", perEval, asyncBOEvaluationAllocCeiling)
		}
	}
}

// benchPoints returns benchEvaluate's first n sampled points of sp.
func benchPoints(sp core.Space, n int) []core.Point {
	rng := stats.NewRNG(1)
	pts := make([]core.Point, n)
	for i := range pts {
		pts[i] = sp.Decode(sp.Sample(rng))
	}
	return pts
}

// benchEvaluate times a loss evaluator over 32 sampled points, warming
// its runner set on each first, and fails the benchmark above ceiling
// allocations per evaluation.
func benchEvaluate(b *testing.B, ev core.Evaluator, sp core.Space, ceiling int) {
	pts := benchPoints(sp, 32)
	for _, p := range pts {
		if _, err := ev(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
	benchAllocGate(b, ceiling, func(i int) {
		if _, err := ev(context.Background(), pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	})
}

// benchAllocGate times op over b.N iterations and fails the benchmark
// when it allocates more than ceiling times per iteration. A count, not
// a timing: it repeats on any runner.
func benchAllocGate(b *testing.B, ceiling int, op func(i int)) {
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N); perOp > float64(ceiling) {
		b.Fatalf("%.0f allocs per iteration, ceiling %d", perOp, ceiling)
	}
}

// wfEvaluateKernelCounts pins, for each of BenchmarkWFEvaluate's first
// four points, what one evaluation (16 simulations) adds to the kernel's
// counters: flow.solves, des.events_fired and des.events_removed. The
// solves are one per instant that changed the activity set; solving at
// every activity start instead cost 6584, 6668, 6588 and 6739. The
// firing and removal counts are unchanged from that kernel.
var wfEvaluateKernelCounts = [][3]int64{
	{1160, 7904, 5532},
	{1684, 8324, 5274},
	{1164, 7896, 5544},
	{2164, 8678, 5138},
}

// TestWFEvaluateKernelCounts is the kernel's noise-free work gate: one
// evaluation of BenchmarkWFEvaluate's problem at each of its first
// seeded points must add exactly the recorded solves, firings and
// removals to the kernel's counters. A change that brings back a solve
// per activity start, or adds or drops an event, fails here on any host.
func TestWFEvaluateKernelCounts(t *testing.T) {
	ev, sp := wfEvaluateProblem(t)
	names := []string{"flow.solves", "des.events_fired", "des.events_removed"}
	for i, p := range benchPoints(sp, len(wfEvaluateKernelCounts)) {
		var got [3]int64
		for j, n := range names {
			got[j] = -obs.Default().Counter(n).Value()
		}
		if _, err := ev(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		for j, n := range names {
			got[j] += obs.Default().Counter(n).Value()
		}
		if got != wfEvaluateKernelCounts[i] {
			t.Errorf("point %d: %v = %v, recorded %v", i, names, got, wfEvaluateKernelCounts[i])
		}
	}
}

// BenchmarkCachedEvaluate measures what the memoization cache buys on a
// real simulator-backed loss: identical repeated-seed calibrations run
// uncached (every evaluation pays for a full simulation sweep) vs
// sharing one cache (from the second iteration on, every evaluation is a
// hit).
func BenchmarkCachedEvaluate(b *testing.B) {
	ds, err := groundtruth.GenerateWorkflowData(groundtruth.WFOptions{
		Apps:    []wfgen.App{wfgen.Epigenomics},
		SizeIdx: []int{0}, WorkIdx: []int{1}, FootIdx: []int{1},
		Workers: []int{2}, Reps: 2, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	v := wfsim.HighestDetail
	ev := loss.WFEvaluator(v, loss.WFL1, ds)
	run := func(b *testing.B, cc *cache.Cache) {
		for i := 0; i < b.N; i++ {
			cal := &core.Calibrator{
				Space: v.Space(), Simulator: ev,
				Algorithm: opt.Random{}, MaxEvaluations: 40, Workers: 2, Seed: 5,
			}
			if cc != nil {
				cal.Cache = cc
				cal.CacheKey = "bench/wf/L1"
			}
			if _, err := cal.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, nil) })
	b.Run("cached", func(b *testing.B) { run(b, cache.New(nil)) })
}

// BenchmarkFigure2Jobs measures the concurrent scheduler's speedup on
// the per-version cells of the level-of-detail study (the -jobs flag of
// cmd/experiments).
func BenchmarkFigure2Jobs(b *testing.B) {
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			o := benchOptions()
			o.MaxEvals = 24
			o.Jobs = jobs
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Figure2(context.Background(), o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOptimizers compares every calibration algorithm at an
// equal 120-evaluation budget on an analytic objective — the repository's
// algorithm-choice ablation (the paper's GRID/GRAD omission rationale).
func BenchmarkAblationOptimizers(b *testing.B) {
	algs := []core.Algorithm{
		opt.Random{}, opt.Grid{}, opt.GradientDescent{},
		opt.NewBOGP(), opt.NewBORF(), opt.NewBOET(), opt.NewBOGBRT(),
	}
	for _, alg := range algs {
		b.Run(alg.Name(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cal := &core.Calibrator{
					Space: benchSpace, Simulator: core.Evaluator(sphereEval),
					Algorithm: alg, MaxEvaluations: 120, Workers: 2, Seed: int64(i),
				}
				res, err := cal.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				last = res.Best.Loss
			}
			b.ReportMetric(last, "final-loss")
		})
	}
}

// BenchmarkBOGPHotPath measures a full BO-GP calibration on a cheap
// analytic loss, so surrogate fitting and acquisition scoring — not the
// simulator — dominate. This is the end-to-end view of the incremental
// GP fit and batched prediction hot path.
func BenchmarkBOGPHotPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cal := &core.Calibrator{
			Space: benchSpace, Simulator: core.Evaluator(sphereEval),
			Algorithm: opt.NewBOGP(), MaxEvaluations: 150, Workers: 2, Seed: 21,
		}
		if _, err := cal.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLossFunctions compares the six workflow losses on one
// evaluation each — the loss-choice ablation.
func BenchmarkAblationLossFunctions(b *testing.B) {
	ds, err := groundtruth.GenerateWorkflowData(groundtruth.WFOptions{
		Apps:    []wfgen.App{wfgen.Epigenomics},
		SizeIdx: []int{0}, WorkIdx: []int{1}, FootIdx: []int{1},
		Workers: []int{2}, Reps: 2, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	v := wfsim.HighestDetail
	pt := groundtruth.WorkflowTruthPoint(v)
	for _, kind := range loss.AllWFKinds {
		b.Run(kind.String(), func(b *testing.B) {
			ev := loss.WFEvaluator(v, kind, ds)
			for i := 0; i < b.N; i++ {
				if _, err := ev(context.Background(), pt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelWorkflow100k times the kernel scale scenario wf-100k
// (kernelscale_test.go): 100k Seismology tasks on 6 workers under the
// highest level of detail. TestKernelScaleBits holds its bits.
func BenchmarkKernelWorkflow100k(b *testing.B) { benchKernelScenario(b, "wf-100k") }

// BenchmarkKernelStencil512 times the kernel scale scenario
// mpi-stencil-512: a 512-node (3072-rank) dense stencil on the
// Summit-like fat tree.
func BenchmarkKernelStencil512(b *testing.B) { benchKernelScenario(b, "mpi-stencil-512") }

func benchKernelScenario(b *testing.B, name string) {
	for _, sc := range kernelScenarios {
		if sc.name != name {
			continue
		}
		run := sc.setup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := run(); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("no kernel scale scenario %s", name)
}
