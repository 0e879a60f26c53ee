package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"

	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/mpi"
	"simcal/internal/opt"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// workload is one fixed-seed reference calibration in one deployment
// shape. setup builds everything the repetitions reuse (dataset,
// simulator, fleet); each call of the returned instance's rep runs the
// whole calibration once.
type workload struct {
	name string
	// why is the one-line rationale BENCHMARK.json and -list print.
	why string
	// evals is the evaluation budget of one repetition at scale 1, and
	// minEvals the floor small-scale test runs keep so every code path
	// (surrogate fit, a full batch on every worker) still executes.
	evals, minEvals int
	// deterministic trajectories are checked bit for bit (golden or
	// reference run) and carry time_to_target_s; the async workload is
	// checked by invariants instead.
	deterministic bool
	setup         func(a setupArgs) (instance, error)
}

// setupArgs is what a workload's set-up is parameterised by.
type setupArgs struct {
	// seed drives dataset generation and the calibration seed.
	seed int64
	// tmpDir is where svc-wf-jobs puts its per-repetition StateDir.
	tmpDir string
	// tr records spans when non-nil; nil leaves every layer unwrapped.
	tr *tracer
}

// budget scales the evaluation budget: scale 1 is the benchmark, tests
// use ~0.02.
func (w workload) budget(scale float64) int {
	n := int(math.Round(float64(w.evals) * scale))
	if n < w.minEvals {
		n = w.minEvals
	}
	return n
}

// instance is a set-up workload. rep runs one repetition of the given
// evaluation budget; with a tracer attached at set-up and switched on,
// the repetition records spans.
type instance interface {
	rep(ctx context.Context, evals int) (*repResult, error)
	space() core.Space
	// effectiveWorkers is the number of evaluations a repetition keeps
	// in flight — the slot count the wall-time attribution divides by.
	effectiveWorkers() int
	// coordinator is the fleet's coordinator, nil in-process.
	coordinator() *dist.Coordinator
	// probes measures the workload's layers on their own, on the first
	// points of a repetition's history.
	probes(rep *repResult) (map[string]float64, error)
	// verify makes the checks only this workload can make on its last
	// repetition and returns one message per mismatch. hasGolden says
	// the repetition already matched a golden record, so a reference
	// run that would only repeat that comparison can be skipped.
	verify(ctx context.Context, last *repResult, hasGolden bool) ([]string, error)
	close()
}

// repResult is what one repetition produced.
type repResult struct {
	// results holds the calibration result(s): one, or one per job on
	// svc-wf-jobs in submission order.
	results []*core.Result
	// budget is the number of evaluations the repetition was asked for.
	budget int
	// wallS is the repetition's wall time in seconds (svc-wf-jobs:
	// first submit to last terminal, from the server's own stamps).
	wallS float64
	// order is the async completion order (mpi-asyncbo-loopback only).
	order []int
	// requeues is Coordinator.Status().RequeuesTotal after the run.
	requeues int
	// svc carries the per-job timings of svc-wf-jobs.
	svc *svcRep
}

func (r *repResult) evals() int {
	n := 0
	for _, res := range r.results {
		n += res.Evaluations
	}
	return n
}

var workloads = []workload{
	{
		name:          "wf-rand-serial",
		why:           "workflow simulator + loss are >95% of wall; opt, dist, cache, service idle: only a kernel or loss change moves it",
		evals:         200,
		minEvals:      8,
		deterministic: true,
		setup:         setupWFRandSerial,
	},
	{
		name:          "mpi-bogp-serial",
		why:           "GP surrogate fit + acquisition are ~3/4 of wall, the MPI simulator the rest: a surrogate change shows here only",
		evals:         600,
		minEvals:      32,
		deterministic: true,
		setup:         setupMPIBOGPSerial,
	},
	{
		name:          "null-rand-tcp",
		why:           "null simulator behind a 2-worker TCP fleet: frame codec, lease queue, RTT and core dispatch are all of wall",
		evals:         30000,
		minEvals:      320,
		deterministic: true,
		setup:         setupNullRandTCP,
	},
	{
		name:     "mpi-asyncbo-loopback",
		why:      "async-bo over a loopback fleet takes the Submit/Next + RunAsync + constant-liar path the batch workloads bypass",
		evals:    300,
		minEvals: 24,
		setup:    setupMPIAsyncLoopback,
	},
	{
		name:          "svc-wf-jobs",
		why:           "12 HTTP jobs from 2 tenants on a shared fleet: service admission, journal I/O and the cache hit path (half of all evals) do real work",
		evals:         svcJobs * svcJobEvals,
		minEvals:      svcJobs * 6,
		deterministic: true,
		setup:         setupSvcWFJobs,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// calInstance runs one core.Calibrator per repetition; four of the five
// workloads are this with different simulators, algorithms and fleets.
type calInstance struct {
	sp      core.Space
	sim     core.Simulator
	newAlg  func() core.Algorithm
	workers int // Calibrator.Workers; 0 leaves it to the simulator's hint
	seed    int64
	tr      *tracer
	fleet   *fleet // nil in-process
	// leaseSpec is what the fleet's leases carry, for the frame probe.
	leaseSpec []byte
	// probe is the workload's own layer probe on the first points of a
	// repetition's history.
	probe func(pts []core.Point) (map[string]float64, error)
	// check, when set, makes the checks only this workload can make on
	// its last repetition.
	check func(ctx context.Context, last *repResult) ([]string, error)
}

func (c *calInstance) space() core.Space { return c.sp }

func (c *calInstance) effectiveWorkers() int {
	if c.workers > 0 {
		return c.workers
	}
	return c.fleet.coord.Capacity()
}

func (c *calInstance) coordinator() *dist.Coordinator {
	if c.fleet == nil {
		return nil
	}
	return c.fleet.coord
}

func (c *calInstance) calibrator(sim core.Simulator, evals int) core.Calibrator {
	return core.Calibrator{
		Space:          c.sp,
		Simulator:      sim,
		Algorithm:      c.newAlg(),
		MaxEvaluations: evals,
		Workers:        c.workers,
		Seed:           c.seed,
	}
}

func (c *calInstance) rep(ctx context.Context, evals int) (*repResult, error) {
	cal := c.calibrator(c.sim, evals)
	if c.tr != nil && c.tr.on.Load() {
		cal.Observer = c.tr
	}
	res, err := cal.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := &repResult{results: []*core.Result{res}, budget: evals, wallS: res.Elapsed.Seconds()}
	if ab, ok := cal.Algorithm.(*opt.AsyncBayesOpt); ok {
		out.order = ab.CompletionOrder()
	}
	if c.fleet != nil {
		out.requeues = c.fleet.coord.Status().RequeuesTotal
	}
	return out, nil
}

func (c *calInstance) probes(rep *repResult) (map[string]float64, error) {
	pts := firstPoints(rep.results[0].History)
	out, err := c.probe(pts)
	if err != nil {
		return nil, err
	}
	if c.fleet != nil {
		frames, err := frameProbe(c.leaseSpec, pts[0])
		if err != nil {
			return nil, err
		}
		maps.Copy(out, frames)
	}
	return out, nil
}

func (c *calInstance) verify(ctx context.Context, last *repResult, _ bool) ([]string, error) {
	if c.check == nil {
		return nil, nil
	}
	return c.check(ctx, last)
}

func (c *calInstance) close() {
	if c.fleet != nil {
		c.fleet.stop()
	}
}

func wfDataset(seed int64) groundtruth.WFOptions {
	return groundtruth.WFOptions{
		Apps:    []wfgen.App{wfgen.Epigenomics, wfgen.Montage},
		SizeIdx: []int{1}, WorkIdx: []int{1, 3}, FootIdx: []int{1, 2},
		Workers: []int{2, 4}, Reps: 3, Seed: seed,
	}
}

func setupWFRandSerial(a setupArgs) (instance, error) {
	ds, err := groundtruth.GenerateWorkflowData(wfDataset(a.seed))
	if err != nil {
		return nil, err
	}
	v := wfsim.HighestDetail
	return &calInstance{
		sp:      v.Space(),
		sim:     a.tr.wrapSim(loss.WFEvaluator(v, loss.WFL1, ds), v.Space()),
		newAlg:  func() core.Algorithm { return opt.Random{} },
		workers: 2,
		seed:    a.seed,
		tr:      a.tr,
		probe: func(pts []core.Point) (map[string]float64, error) {
			return wfProbe(v, ds, pts)
		},
	}, nil
}

func mpiDataset(seed int64) groundtruth.MPIOptions {
	return groundtruth.MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.PingPing, mpi.BiRandom},
		Nodes:      []int{8}, MsgSizes: []float64{1 << 10, 1 << 16, 1 << 22},
		Rounds: 2, Reps: 3, Seed: seed,
	}
}

// mpiEvalRounds is the rounds argument of the MPI loss evaluator, the
// value cmd/simcal uses.
const mpiEvalRounds = 2

func setupMPIBOGPSerial(a setupArgs) (instance, error) {
	ds, err := groundtruth.GenerateMPIData(mpiDataset(a.seed))
	if err != nil {
		return nil, err
	}
	v := groundtruth.MPIReferenceVersion
	return &calInstance{
		sp:      v.Space(),
		sim:     a.tr.wrapSim(loss.MPIEvaluator(v, loss.MPIL1, ds, mpiEvalRounds), v.Space()),
		newAlg:  func() core.Algorithm { return opt.NewBOGP() },
		workers: 2,
		seed:    a.seed,
		tr:      a.tr,
		probe: func(pts []core.Point) (map[string]float64, error) {
			return mpiProbe(v, ds, pts)
		},
	}, nil
}

// nullSpec is the opaque lease spec of the null simulator; the worker
// factory ignores it.
var nullSpec = json.RawMessage(`{"null":6}`)

func setupNullRandTCP(a setupArgs) (instance, error) {
	space := nullSpace()
	factory := func([]byte) (core.Simulator, error) { return newNullSim(space), nil }
	fl, err := startFleet(a.tr.wrapTransport(dist.TCP{}), "127.0.0.1:0", 2, 2, a.tr.wrapFactory(factory, space))
	if err != nil {
		return nil, err
	}
	c := &calInstance{
		sp:        space,
		sim:       a.tr.wrapRemote(fl.coord.Evaluator(nullSpec), space, ""),
		newAlg:    func() core.Algorithm { return opt.Random{Batch: 16} },
		seed:      a.seed,
		tr:        a.tr,
		fleet:     fl,
		leaseSpec: nullSpec,
		// The null simulator has nothing to split; the workload hosts the
		// observer probe, which runs the same calibration in-process.
		probe: func([]core.Point) (map[string]float64, error) { return obsProbe(a.seed) },
	}
	// The fleet's trajectory must equal an untimed in-process serial run
	// bit for bit, whatever the seed.
	c.check = func(ctx context.Context, last *repResult) ([]string, error) {
		cal := c.calibrator(newNullSim(space), last.budget)
		cal.Workers = 1
		want, err := cal.Run(ctx)
		if err != nil {
			return nil, err
		}
		if err := sameTrajectory(space, last.results[0], want); err != nil {
			return []string{"fleet vs in-process serial run: " + err.Error()}, nil
		}
		return nil, nil
	}
	return c, nil
}

func setupMPIAsyncLoopback(a setupArgs) (instance, error) {
	v := groundtruth.MPIReferenceVersion
	spec, err := simspec.ForMPI(v, loss.MPIL1, mpiDataset(a.seed), mpiEvalRounds, false).Canonical()
	if err != nil {
		return nil, err
	}
	fl, err := startFleet(a.tr.wrapTransport(dist.NewLoopback()), "", 2, 1, a.tr.wrapFactory(simspec.BuildSimulator, v.Space()))
	if err != nil {
		return nil, err
	}
	return &calInstance{
		sp:  v.Space(),
		sim: a.tr.wrapRemote(fl.coord.Evaluator(spec), v.Space(), ""),
		newAlg: func() core.Algorithm {
			alg, err := opt.ByName("async-bo")
			if err != nil {
				panic(fmt.Sprintf("bench: %v", err)) // the name is a constant of this file
			}
			return alg
		},
		seed:      a.seed,
		tr:        a.tr,
		fleet:     fl,
		leaseSpec: spec,
		// Completion order is not deterministic: check the invariants, and
		// that every recorded loss is a real evaluation of its point.
		check: func(ctx context.Context, last *repResult) ([]string, error) {
			sim, err := simspec.BuildSimulator(spec)
			if err != nil {
				return nil, err
			}
			bad := asyncInvariants(last.order, last.budget)
			return append(bad, realLosses(ctx, sim, last.results[0])...), nil
		},
		probe: func(pts []core.Point) (map[string]float64, error) {
			ds, err := groundtruth.GenerateMPIData(mpiDataset(a.seed))
			if err != nil {
				return nil, err
			}
			return mpiProbe(v, ds, pts)
		},
	}, nil
}
