// Command simcal runs an automated simulation calibration for either
// case study and reports the calibrated parameter values, the achieved
// loss, and — because this repository's ground truth has known true
// parameters — the calibration error.
//
// Usage:
//
//	simcal -case wf  -alg BO-GP -loss L1 -evals 200
//	simcal -case mpi -alg RAND  -loss L2 -budget 30s
//	simcal -case wf  -network series -storage all -compute htcondor
//	simcal -case wf  -trace out.jsonl -metrics      # instrumented run
//	simcal -replay out.jsonl                        # convergence from a trace
//	simcal -case mpi -pprof localhost:6060          # live profiling
//	simcal -case wf  -eval-timeout 2s -eval-retries 5    # fault-tolerant executor
//	simcal -case wf  -evals 500 -checkpoint ck.json      # periodic snapshots
//	simcal -case wf  -evals 500 -checkpoint ck.json -resume  # continue a killed run
//	simcal -case wf  -listen :9090 -dist-workers 2       # distribute evaluations to simcal-worker processes
//	simcal -case wf -listen :9090 -chaos-profile drop=0.05 -chaos-seed 42  # fault-injected run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"
	"time"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/dist/chaos"
	"simcal/internal/experiments"
	"simcal/internal/groundtruth"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/resilience"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

func main() {
	var (
		study    = flag.String("case", "wf", "case study: wf (workflows) or mpi (message passing)")
		algName  = flag.String("alg", "BO-GP", "algorithm: "+opt.AlgorithmUsage())
		lossName = flag.String("loss", "L1", "loss function (L1..L6 for wf, L1..L4 for mpi)")
		evals    = flag.Int("evals", 100, "maximum loss evaluations")
		budget   = flag.Duration("budget", 0, "optional wall-clock budget")
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "parallel evaluation workers (default GOMAXPROCS)")
		jobs     = flag.Int("jobs", 1, "run this many calibration restarts in parallel (seeds seed, seed+1000, ...) and keep the best")
		useCache = flag.Bool("cache", false, "memoize loss evaluations (shared across -jobs restarts)")
		outPath  = flag.String("out", "", "write the calibration result as JSON (with history)")
		prSpec   = flag.Bool("print-spec", false, "print the canonical simulator spec JSON for this flag combination and exit (the spec a simcald job submits)")

		network = flag.String("network", "", "wf: one-link|star|series; mpi: backbone|backbone-links|tree4|fat-tree")
		storage = flag.String("storage", "all", "wf: submit|all")
		compute = flag.String("compute", "htcondor", "wf: direct|htcondor")
		node    = flag.String("node", "complex", "mpi: simple|complex")
		proto   = flag.String("protocol", "fixed", "mpi: fixed|free")

		tracePath  = flag.String("trace", "", "write a structured JSONL trace of the calibration to this file")
		metrics    = flag.Bool("metrics", false, "print the final metrics snapshot after the calibration")
		pprofAddr  = flag.String("pprof", "", "serve /metrics, /statusz, /healthz, and /debug/pprof on this address (e.g. localhost:6060)")
		replayPath = flag.String("replay", "", "replay a JSONL trace: print its convergence curve and exit")

		ckptPath  = flag.String("checkpoint", "", "periodically snapshot the calibration to this file (atomic write-then-rename; see -resume)")
		ckptEvery = flag.Int("checkpoint-every", 25, "evaluations between checkpoint snapshots")
		resume    = flag.Bool("resume", false, "resume from the -checkpoint file if it exists (fresh start otherwise); the resumed result is identical to an uninterrupted run")

		evalTimeout = flag.Duration("eval-timeout", 0, "per-evaluation timeout (enables the fault-tolerant executor)")
		evalRetries = flag.Int("eval-retries", 0, "max attempts per evaluation for transient failures (enables the fault-tolerant executor)")
		breakerN    = flag.Int("breaker", 0, "open the circuit breaker after this many consecutive evaluation failures (enables the fault-tolerant executor)")

		listen        = flag.String("listen", "", "distribute loss evaluations: listen for workers on this address (host:port) and lease evaluations to them")
		distWorkers   = flag.Int("dist-workers", 1, "with -listen: wait for this many connected workers before calibrating")
		leaseResend   = flag.Duration("lease-resend", 0, "with -listen: redeliver an unanswered lease after this long (0 = off, or 3s when -chaos-profile is set; workers deduplicate)")
		maxRequeues   = flag.Int("max-requeues", 0, "with -listen: quarantine a lease after this many requeues from worker deaths and evaluate it locally (0 = default 3, negative = unbounded)")
		degradedGrace = flag.Duration("degraded-grace", 0, "with -listen: after the fleet has been empty this long, drain queued evaluations locally until a worker returns (0 = default 30s, negative = off)")

		chaosProfile = flag.String("chaos-profile", "", "inject seeded network faults on all dist connections, e.g. drop=0.05,delay=0.1:20ms,corrupt=0.01 (see internal/dist/chaos)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for the -chaos-profile fault schedule (same seed replays the same faults)")

		asyncInflight = flag.Int("async-inflight", 0, "with -alg async-bo: cap concurrently running evaluations (default: the evaluation workers / fleet capacity)")
		asyncReplay   = flag.String("async-replay", "", "with -alg async-bo: force the completion order recorded in this JSONL trace (its dist_async_completion events), reproducing the traced run bitwise")
	)
	flag.Parse()

	dc := distCfg{
		leaseResend:   *leaseResend,
		maxRequeues:   *maxRequeues,
		degradedGrace: *degradedGrace,
		chaosProfile:  *chaosProfile,
		chaosSeed:     *chaosSeed,
	}
	if *chaosProfile != "" && *leaseResend == 0 {
		// A lossy transport can eat a lease or result frame; redelivery
		// is what recovers it short of heartbeat eviction.
		dc.leaseResend = 3 * time.Second
	}

	if *ckptPath != "" && *jobs > 1 {
		fatal(fmt.Errorf("-checkpoint snapshots a single calibration; it cannot be combined with -jobs %d", *jobs))
	}
	if *resume && *ckptPath == "" {
		fatal(fmt.Errorf("-resume needs -checkpoint to name the snapshot file"))
	}

	if *replayPath != "" {
		if err := runReplay(*replayPath); err != nil {
			fatal(err)
		}
		return
	}

	holder := &statusHolder{}
	// stopObs shuts the observability server down; it is called
	// explicitly at the end of main, AFTER the run's deferred
	// coordinator shutdown has closed the coordinator and cleared the
	// status holder — so a late /metrics or /statusz scrape never
	// reads a closed coordinator. simcald follows the same order.
	stopObs := func() {}
	if *pprofAddr != "" {
		obs.Default().PublishExpvar("simcal")
		srv, err := obs.StartServer(*pprofAddr, obs.ServerConfig{
			Refresh: holder.refresh,
			Status:  holder.status,
		})
		if err != nil {
			fatal(fmt.Errorf("observability server: %w", err))
		}
		stopObs = func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}
		fmt.Fprintf(os.Stderr, "observability server on http://%s (/metrics /statusz /healthz /debug/pprof)\n", srv.Addr())
	}

	var tracer *obs.Tracer
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		tracer = obs.NewTracer(f)
	}

	alg, err := opt.ByName(*algName)
	if err != nil {
		fatal(err)
	}
	if *asyncInflight > 0 || *asyncReplay != "" {
		ab, ok := alg.(*opt.AsyncBayesOpt)
		if !ok {
			fatal(fmt.Errorf("-async-inflight and -async-replay require -alg async-bo, got %s", *algName))
		}
		ab.MaxInFlight = *asyncInflight
		if *asyncReplay != "" {
			if *jobs > 1 {
				fatal(fmt.Errorf("-async-replay reproduces a single recorded run; it cannot be combined with -jobs %d", *jobs))
			}
			order, err := loadAsyncOrder(*asyncReplay)
			if err != nil {
				fatal(err)
			}
			ab.Replay = order
		}
	}
	o := experiments.Default()
	o.Seed = *seed
	o.MaxEvals = *evals
	o.Budget = *budget
	if *workers > 0 {
		o.Workers = *workers
	}
	if tracer != nil || *metrics || *pprofAddr != "" {
		o.Observer = core.NewObsObserver(obs.Default(), tracer)
	}

	var evalCache *cache.Cache
	if *useCache {
		evalCache = cache.New(obs.Default())
	}

	if *listen != "" && *workers <= 0 {
		// Let the remote pool's capacity set the batch parallelism (see
		// core.ConcurrencyHinter) instead of the local GOMAXPROCS.
		o.Workers = 0
	}

	rc := runCfg{
		outPath:     *outPath,
		printSpec:   *prSpec,
		jobs:        *jobs,
		cache:       evalCache,
		ckptPath:    *ckptPath,
		ckptEvery:   *ckptEvery,
		resume:      *resume,
		policy:      resiliencePolicy(*evalTimeout, *evalRetries, *breakerN),
		listen:      *listen,
		distWorkers: *distWorkers,
		dist:        dc,
		tracer:      tracer,
		traceID:     fmt.Sprintf("%s-%s-%s-seed%d", *study, *algName, *lossName, *seed),
		status:      holder,
	}

	switch *study {
	case "wf":
		err = runWF(o, alg, *lossName, *network, *storage, *compute, rc)
	case "mpi":
		err = runMPI(o, alg, *lossName, *network, *node, *proto, rc)
	default:
		err = fmt.Errorf("unknown case study %q", *study)
	}
	if evalCache != nil {
		st := evalCache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d in-flight waits, %d entries\n",
			st.Hits, st.Misses, st.InflightWaits, st.Entries)
	}
	if traceFile != nil {
		if ferr := tracer.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Printf("trace written to %s\n", *tracePath)
		}
	}
	if err != nil {
		fatal(err)
	}
	if *metrics {
		fmt.Println("metrics:")
		if err := obs.Default().Snapshot().WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
	stopObs()
}

// runReplay reconstructs the best-loss-vs-time convergence curve (the
// paper's Figure 1/4 data) from a JSONL trace alone.
func runReplay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	if m, ok := obs.TraceManifest(recs); ok {
		fmt.Printf("trace: %s seed=%d workers=%d version=%s params=%d\n",
			m.Algorithm, m.Seed, m.Workers, m.Version, len(m.Space))
	}
	pts, err := obs.ReplayConvergenceRecords(recs)
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		return fmt.Errorf("trace %s contains no eval_completed events", path)
	}
	conv := make([]experiments.ConvergencePoint, len(pts))
	for i, p := range pts {
		conv[i] = experiments.ConvergencePoint{Elapsed: p.Elapsed, Evaluations: p.Evaluations, Loss: p.Loss}
	}
	fmt.Print(experiments.FormatConvergence(conv, 20))
	return nil
}

// runCfg bundles the per-run flags shared by both case studies.
type runCfg struct {
	outPath     string
	printSpec   bool
	jobs        int
	cache       *cache.Cache
	ckptPath    string
	ckptEvery   int
	resume      bool
	policy      *resilience.Policy
	listen      string
	distWorkers int
	dist        distCfg
	tracer      *obs.Tracer
	traceID     string
	status      *statusHolder
}

// distCfg bundles the distributed-plane hardening flags of the
// coordinator (-listen) mode.
type distCfg struct {
	leaseResend   time.Duration
	maxRequeues   int
	degradedGrace time.Duration
	chaosProfile  string
	chaosSeed     int64
}

// loadAsyncOrder extracts a recorded async completion order from a
// JSONL trace's dist_async_completion events (see -async-replay).
func loadAsyncOrder(path string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	order, err := obs.ReplayAsyncOrder(recs)
	if err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("trace %s contains no dist_async_completion events (was it an async-bo run with -trace?)", path)
	}
	return order, nil
}

// transport builds the dist transport the flags describe: plain TCP,
// or TCP behind a deterministic fault injector when -chaos-profile is
// set. The second return is non-nil only in the chaos case, for
// reporting injected-fault counts.
func (d distCfg) transport() (dist.Transport, *chaos.Transport, error) {
	tcp := dist.TCP{}
	if d.chaosProfile == "" {
		return tcp, nil, nil
	}
	prof, err := chaos.ParseProfile(d.chaosProfile)
	if err != nil {
		return nil, nil, fmt.Errorf("-chaos-profile: %w", err)
	}
	ct, err := chaos.New(tcp, prof, d.chaosSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("-chaos-profile: %w", err)
	}
	fmt.Fprintf(os.Stderr, "simcal: chaos profile %q seed %d\n", d.chaosProfile, d.chaosSeed)
	return ct, ct, nil
}

// statusHolder bridges the observability server (started before any
// coordinator exists) to the coordinator of a distributed run: /statusz
// and /metrics read whatever coordinator is currently set, if any.
type statusHolder struct {
	mu    sync.Mutex
	coord *dist.Coordinator
}

func (h *statusHolder) set(c *dist.Coordinator) {
	h.mu.Lock()
	h.coord = c
	h.mu.Unlock()
}

func (h *statusHolder) get() *dist.Coordinator {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.coord
}

// refresh is the obs.ServerConfig.Refresh hook: it updates the
// coordinator's per-worker fleet gauges before a /metrics scrape.
func (h *statusHolder) refresh() {
	if c := h.get(); c != nil {
		c.RefreshFleetGauges()
	}
}

// status is the obs.ServerConfig.Status hook contributing the fleet
// view to /statusz.
func (h *statusHolder) status() any {
	if c := h.get(); c != nil {
		return c.Status()
	}
	return nil
}

// simulator resolves the loss evaluator for a spec: built locally, or —
// with -listen — leased to remote workers through a coordinator. The
// returned shutdown func closes the coordinator (workers then exit
// cleanly); it is a no-op for local evaluation.
func (rc runCfg) simulator(sp simspec.Spec) (core.Simulator, func(), error) {
	if rc.listen == "" {
		sim, err := sp.Build()
		return sim, func() {}, err
	}
	specBytes, err := sp.Canonical()
	if err != nil {
		return nil, nil, err
	}
	tr, ct, err := rc.dist.transport()
	if err != nil {
		return nil, nil, err
	}
	l, err := tr.Listen(rc.listen)
	if err != nil {
		return nil, nil, err
	}
	coord := dist.NewCoordinator(dist.CoordinatorConfig{
		Name:     "simcal",
		Registry: obs.Default(),
		Tracer:   rc.tracer,
		TraceID:  rc.traceID,
		// The hardening triad: requeue-capped quarantine with local
		// fallback, fleet-empty degradation to local evaluation, and
		// (on lossy transports) lease redelivery.
		LocalFactory:  simspec.BuildSimulator,
		MaxRequeues:   rc.dist.maxRequeues,
		DegradedGrace: rc.dist.degradedGrace,
		ResendAfter:   rc.dist.leaseResend,
	})
	if rc.status != nil {
		rc.status.set(coord)
	}
	go func() {
		if err := coord.Serve(l); err != nil {
			fmt.Fprintln(os.Stderr, "simcal: coordinator:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "coordinator listening on %s; waiting for %d worker(s)\n", l.Addr(), rc.distWorkers)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := coord.WaitForWorkers(ctx, rc.distWorkers); err != nil {
		coord.Close()
		l.Close()
		return nil, nil, err
	}
	shutdown := func() {
		// Detach /statusz and /metrics from the coordinator before
		// closing it: the obs server outlives the coordinator (it is
		// shut down last), and its scrape hooks must not read a
		// closed coordinator.
		if rc.status != nil {
			rc.status.set(nil)
		}
		coord.Close()
		l.Close()
		if ct != nil {
			fmt.Fprintf(os.Stderr, "simcal: chaos faults injected: %s\n", ct.Counts())
		}
	}
	return coord.Evaluator(specBytes), shutdown, nil
}

// resiliencePolicy builds the executor policy implied by the flags, or
// nil when none are set (evaluations then run without timeouts,
// retries, or circuit breaking; panic isolation alone is always on).
// Setting any flag starts from resilience.DefaultPolicy's backoff, so
// e.g. -eval-timeout alone still retries transient failures.
func resiliencePolicy(timeout time.Duration, retries, breaker int) *resilience.Policy {
	if timeout <= 0 && retries <= 0 && breaker <= 0 {
		return nil
	}
	p := resilience.DefaultPolicy()
	p.Timeout = timeout // 0 disables the per-attempt timeout
	if retries > 0 {
		p.MaxAttempts = retries
	}
	p.BreakerThreshold = breaker // 0 disables the breaker
	return &p
}

// applyRuntime wires the fault-tolerance and checkpoint/resume flags
// into the calibrator.
func applyRuntime(cal *core.Calibrator, rc runCfg) error {
	cal.Resilience = rc.policy
	if rc.ckptPath == "" {
		return nil
	}
	cal.Checkpoint = &core.CheckpointSpec{Path: rc.ckptPath, Every: rc.ckptEvery}
	if !rc.resume {
		return nil
	}
	snap, err := core.LoadCheckpoint(rc.ckptPath)
	switch {
	case err == nil:
		cal.Resume = snap
		fmt.Printf("resuming from %s: %d evaluations, %s elapsed\n",
			rc.ckptPath, snap.Evaluations, snap.Elapsed.Round(time.Millisecond))
	case errors.Is(err, fs.ErrNotExist):
		fmt.Printf("no checkpoint at %s; starting fresh\n", rc.ckptPath)
	default:
		return err
	}
	return nil
}

// printSpec writes the canonical simulator spec to stdout — the exact
// bytes a distributed lease carries and the body a simcald job
// submits, so `simcal -print-spec … | …` and a direct simcal run
// calibrate the same simulator.
func printSpec(sp simspec.Spec) error {
	b, err := sp.Canonical()
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// saveResult writes the result JSON when a path was given.
func saveResult(path string, res *core.Result) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.WriteJSON(f, true); err != nil {
		return err
	}
	fmt.Printf("result written to %s\n", path)
	return nil
}

// calibrateBest runs the calibration. With jobs > 1 it runs jobs
// restarts concurrently with seeds base.Seed, base.Seed+1000, … and
// returns the lowest-loss result (ties break toward the lowest restart
// index, so the winner does not depend on scheduling order). All
// restarts share base's cache, if any.
func calibrateBest(ctx context.Context, base core.Calibrator, jobs int) (*core.Result, error) {
	if jobs <= 1 {
		return base.Run(ctx)
	}
	results, err := experiments.RunJobs(ctx, experiments.NewScheduler(jobs), jobs,
		func(ctx context.Context, i int) (*core.Result, error) {
			cal := base
			cal.Seed = base.Seed + int64(1000*i)
			return cal.Run(ctx)
		})
	if err != nil {
		return nil, err
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.Best.Loss < best.Best.Loss {
			best = r
		}
	}
	return best, nil
}

func runWF(o experiments.Options, alg core.Algorithm, lossName, network, storage, compute string, rc runCfg) error {
	v := wfsim.HighestDetail
	if network != "" {
		var err error
		v, err = simspec.ParseWFVersion(network, storage, compute)
		if err != nil {
			return err
		}
	}
	kind, err := simspec.ParseWFLoss(lossName)
	if err != nil {
		return err
	}
	sp := simspec.ForWF(v, kind, groundtruth.WFOptions{
		Apps:    []wfgen.App{wfgen.Epigenomics},
		SizeIdx: []int{1}, WorkIdx: []int{1, 3}, FootIdx: []int{1, 2},
		Workers: []int{2}, Reps: 3, Seed: o.Seed,
	}, false)
	if rc.printSpec {
		return printSpec(sp)
	}
	sim, shutdown, err := rc.simulator(sp)
	if err != nil {
		return err
	}
	defer shutdown()
	fmt.Printf("calibrating %s with %s/%s...\n", v.Name(), alg.Name(), kind)
	cal := core.Calibrator{
		Space: v.Space(), Simulator: sim,
		Algorithm: alg, MaxEvaluations: o.MaxEvals, Budget: o.Budget,
		Workers: o.Workers, Seed: o.Seed, Observer: o.Observer,
		Cache:    rc.cache,
		CacheKey: fmt.Sprintf("simcal/wf/%s/%s#seed=%d", v.Name(), kind, o.Seed),
	}
	if err := applyRuntime(&cal, rc); err != nil {
		return err
	}
	start := time.Now()
	res, err := calibrateBest(context.Background(), cal, rc.jobs)
	if err != nil {
		return err
	}
	report(v.Space(), res, start)
	truth := groundtruth.WorkflowTruthPoint(v)
	fmt.Printf("calibration error vs hidden truth: %.1f%%\n",
		core.CalibrationError(v.Space(), res.Best.Point, truth))
	return saveResult(rc.outPath, res)
}

func runMPI(o experiments.Options, alg core.Algorithm, lossName, network, node, proto string, rc runCfg) error {
	v := mpisim.HighestDetail
	if network != "" {
		var err error
		v, err = simspec.ParseMPIVersion(network, node, proto)
		if err != nil {
			return err
		}
	}
	kind, err := simspec.ParseMPILoss(lossName)
	if err != nil {
		return err
	}
	sp := simspec.ForMPI(v, kind, groundtruth.MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.PingPing, mpi.BiRandom},
		Nodes:      []int{8}, MsgSizes: o.MPIMsgSizes, Rounds: 2, Reps: 3, Seed: o.Seed,
	}, 2, false)
	if rc.printSpec {
		return printSpec(sp)
	}
	sim, shutdown, err := rc.simulator(sp)
	if err != nil {
		return err
	}
	defer shutdown()
	fmt.Printf("calibrating %s with %s/%s...\n", v.Name(), alg.Name(), kind)
	cal := core.Calibrator{
		Space: v.Space(), Simulator: sim,
		Algorithm: alg, MaxEvaluations: o.MaxEvals, Budget: o.Budget,
		Workers: o.Workers, Seed: o.Seed, Observer: o.Observer,
		Cache:    rc.cache,
		CacheKey: fmt.Sprintf("simcal/mpi/%s/%s#seed=%d", v.Name(), kind, o.Seed),
	}
	if err := applyRuntime(&cal, rc); err != nil {
		return err
	}
	start := time.Now()
	res, err := calibrateBest(context.Background(), cal, rc.jobs)
	if err != nil {
		return err
	}
	report(v.Space(), res, start)
	truth := groundtruth.MPITruthPoint(v)
	fmt.Printf("calibration error vs hidden truth: %.1f%%\n",
		core.CalibrationError(v.Space(), res.Best.Point, truth))
	return saveResult(rc.outPath, res)
}

func report(space core.Space, res *core.Result, start time.Time) {
	fmt.Printf("evaluations: %d in %s\n", res.Evaluations, time.Since(start).Round(time.Millisecond))
	fmt.Printf("best loss:   %.6f\n", res.Best.Loss)
	fmt.Println("calibrated parameters:")
	names := make([]string, 0, len(res.Best.Point))
	for n := range res.Best.Point {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-24s %.6g\n", n, res.Best.Point[n])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simcal:", err)
	os.Exit(1)
}
