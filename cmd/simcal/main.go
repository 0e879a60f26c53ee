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
//	simcal -replay ck.jsonl                         # convergence from a journal
//	simcal -case mpi -pprof localhost:6060          # live profiling
//	simcal -case wf  -eval-timeout 2s -eval-retries 5    # attempt timeouts and retries
//	simcal -case wf  -evals 500 -checkpoint ck.jsonl     # evaluation journal
//	simcal -case wf  -evals 500 -checkpoint ck.jsonl -resume  # continue a killed run
//	simcal -case wf  -listen :9090 -dist-workers 2       # distribute evaluations to simcal-worker processes
//	simcal -case wf -listen :9090 -chaos-profile delay=0.1:20ms,reset=0.01 -chaos-seed 42  # fault-injected run
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"simcal/internal/cache"
	"simcal/internal/cli"
	"simcal/internal/core"
	"simcal/internal/experiments"
	"simcal/internal/groundtruth"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

func main() { cli.Main("simcal", run) }

// config is simcal's command line: its own flags and the shared groups.
type config struct {
	study, alg, loss string
	evals            int
	budget           time.Duration
	seed             int64
	workers, jobs    int
	cache            bool
	out              string
	printSpec        bool

	network, storage, compute, node, protocol string

	replay      string
	checkpoint  string
	resume      bool
	asyncReplay string

	obs        cli.Obs
	fleet      cli.Fleet
	resilience cli.Resilience
}

func (c *config) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("simcal", flag.ContinueOnError)
	fs.StringVar(&c.study, "case", "wf", "case study: wf (workflows) or mpi (message passing)")
	fs.StringVar(&c.alg, "alg", "BO-GP", "algorithm: "+opt.AlgorithmUsage())
	fs.StringVar(&c.loss, "loss", "L1", "loss function (L1..L6 for wf, L1..L4 for mpi)")
	fs.IntVar(&c.evals, "evals", 100, "maximum loss evaluations")
	fs.DurationVar(&c.budget, "budget", 0, "optional wall-clock budget")
	fs.Int64Var(&c.seed, "seed", 1, "random seed")
	fs.IntVar(&c.workers, "workers", 0, "parallel evaluation workers (default GOMAXPROCS)")
	fs.IntVar(&c.jobs, "jobs", 1, "run this many calibration restarts in parallel (seeds seed, seed+1000, ...) and keep the best")
	fs.BoolVar(&c.cache, "cache", false, "memoize loss evaluations (shared across -jobs restarts)")
	fs.StringVar(&c.out, "out", "", "write the calibration result as JSON (with history)")
	fs.BoolVar(&c.printSpec, "print-spec", false, "print the canonical simulator spec JSON for this flag combination and exit (the spec a simcald job submits)")

	fs.StringVar(&c.network, "network", "", "wf: one-link|star|series; mpi: backbone|backbone-links|tree4|fat-tree")
	fs.StringVar(&c.storage, "storage", "all", "wf: submit|all")
	fs.StringVar(&c.compute, "compute", "htcondor", "wf: direct|htcondor")
	fs.StringVar(&c.node, "node", "complex", "mpi: simple|complex")
	fs.StringVar(&c.protocol, "protocol", "fixed", "mpi: fixed|free")

	fs.StringVar(&c.replay, "replay", "", "replay a calibration journal (a -checkpoint file or a simcald job's): print its convergence curve and exit")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "journal every evaluation to this file, fsynced at each batch or completion (see -resume)")
	fs.BoolVar(&c.resume, "resume", false, "resume from the -checkpoint journal if it exists (fresh start otherwise) and append to it; the resumed result is identical to an uninterrupted run")
	fs.StringVar(&c.asyncReplay, "async-replay", "", "with -alg async-bo: force the completion order recorded in this calibration journal (a -checkpoint file or a simcald job's, for the same -seed and space), reproducing the journaled run bitwise")

	c.obs.Register(fs)
	c.obs.RegisterTrace(fs)
	c.fleet.Register(fs)
	c.fleet.Chaos.Register(fs)
	c.resilience.Register(fs)
	return fs
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	var c config
	if err := cli.Parse(c.flagSet(), args, stderr); err != nil {
		return err
	}
	if c.checkpoint != "" && c.jobs > 1 {
		return fmt.Errorf("-checkpoint journals a single calibration; it cannot be combined with -jobs %d", c.jobs)
	}
	if c.resume && c.checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint to name the journal")
	}
	if c.replay != "" {
		return runReplay(stdout, c.replay)
	}
	alg, err := c.algorithm()
	if err != nil {
		return err
	}
	t, err := c.target()
	if err != nil {
		return err
	}
	if c.printSpec {
		return printSpec(stdout, t.spec)
	}

	// Stop order (internal/cli): the deferred fleet.Close inside
	// calibrate runs before this deferred obs.Close.
	if err := c.obs.Start("simcal", obs.ServerConfig{Refresh: c.fleet.Refresh, Status: c.fleet.Status}, stdout, stderr); err != nil {
		return err
	}
	defer func() {
		if cerr := c.obs.Close(); err == nil {
			err = cerr
		}
	}()
	return c.calibrate(t, alg, stdout, stderr)
}

// algorithm resolves -alg; -async-replay needs a single async-bo run.
func (c *config) algorithm() (core.Algorithm, error) {
	alg, err := opt.ByName(c.alg)
	if err != nil || c.asyncReplay == "" {
		return alg, err
	}
	if _, ok := alg.(*opt.AsyncBayesOpt); !ok {
		return nil, fmt.Errorf("-async-replay requires -alg async-bo, got %s", c.alg)
	}
	if c.jobs > 1 {
		return nil, fmt.Errorf("-async-replay reproduces a single recorded run; it cannot be combined with -jobs %d", c.jobs)
	}
	return alg, nil
}

// runReplay prints a calibration journal's identity and its
// best-loss-vs-time curve (the paper's Figure 1/4 data), read from the
// journal alone.
func runReplay(stdout io.Writer, path string) error {
	jr, err := core.ReadJournal(path, nil)
	if err != nil {
		return err
	}
	if len(jr.History) == 0 {
		return fmt.Errorf("journal %s holds no consumptions", path)
	}
	fmt.Fprintf(stdout, "journal: %s seed=%d space=%v\n", jr.Algorithm, jr.Seed, jr.Space)
	fmt.Fprint(stdout, experiments.FormatConvergence(experiments.ConvergenceCurve(&core.Result{History: jr.History}), 20))
	return nil
}

// applyAsyncReplay sets -async-replay's journaled consumption order as
// the algorithm's Replay. The journal must be this run's — async-bo, the
// same seed and space — which resume's check decides before any
// evaluation.
func (c *config) applyAsyncReplay(cal *core.Calibrator) error {
	if c.asyncReplay == "" {
		return nil
	}
	jr, err := core.ReadJournal(c.asyncReplay, cal)
	if err != nil {
		return err
	}
	if len(jr.Order) == 0 {
		return fmt.Errorf("journal %s holds no consumptions to replay", c.asyncReplay)
	}
	cal.Algorithm.(*opt.AsyncBayesOpt).Replay = jr.Order
	return nil
}

// target is what simcal calibrates: the canonical simulator spec (the
// bytes a distributed lease carries and a simcald job submits), the
// version's display name, and the hidden truth point the result is
// scored against.
type target struct {
	spec  simspec.Spec
	name  string
	truth core.Point
}

// target builds the spec the case-study flags describe.
func (c *config) target() (target, error) {
	switch c.study {
	case "wf":
		return c.wfTarget()
	case "mpi":
		return c.mpiTarget()
	}
	return target{}, fmt.Errorf("unknown case study %q", c.study)
}

func (c *config) wfTarget() (target, error) {
	v := wfsim.HighestDetail
	if c.network != "" {
		var err error
		if v, err = simspec.ParseWFVersion(c.network, c.storage, c.compute); err != nil {
			return target{}, err
		}
	}
	kind, err := simspec.ParseWFLoss(c.loss)
	if err != nil {
		return target{}, err
	}
	sp := simspec.ForWF(v, kind, groundtruth.WFOptions{
		Apps:    []wfgen.App{wfgen.Epigenomics},
		SizeIdx: []int{1}, WorkIdx: []int{1, 3}, FootIdx: []int{1, 2},
		Workers: []int{2}, Reps: 3, Seed: c.seed,
	}, false)
	return target{spec: sp, name: v.Name(), truth: groundtruth.WorkflowTruthPoint(v)}, nil
}

func (c *config) mpiTarget() (target, error) {
	v := mpisim.HighestDetail
	if c.network != "" {
		var err error
		if v, err = simspec.ParseMPIVersion(c.network, c.node, c.protocol); err != nil {
			return target{}, err
		}
	}
	kind, err := simspec.ParseMPILoss(c.loss)
	if err != nil {
		return target{}, err
	}
	sp := simspec.ForMPI(v, kind, groundtruth.MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.PingPing, mpi.BiRandom},
		Nodes:      []int{8}, MsgSizes: experiments.Default().MPIMsgSizes, Rounds: 2, Reps: 3, Seed: c.seed,
	}, 2, false)
	return target{spec: sp, name: v.Name(), truth: groundtruth.MPITruthPoint(v)}, nil
}

// printSpec writes the canonical simulator spec to stdout, so
// `simcal -print-spec … | …` and a direct simcal run calibrate the same
// simulator.
func printSpec(stdout io.Writer, sp simspec.Spec) error {
	b, err := sp.Canonical()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// calibrate runs one calibration of t over Spec.Space and Spec.Build —
// the path a simcald job takes — with the evaluator built locally or,
// with -listen, leased to the fleet.
func (c *config) calibrate(t target, alg core.Algorithm, stdout, stderr io.Writer) error {
	space, err := t.spec.Space()
	if err != nil {
		return err
	}
	specBytes, err := t.spec.Canonical()
	if err != nil {
		return err
	}
	cal := core.Calibrator{
		Space: space, Algorithm: alg, MaxEvaluations: c.evals, Budget: c.budget,
		Workers: c.workers, Seed: c.seed, Observer: c.obs.Observer(),
		CacheKey:   fmt.Sprintf("simcal/%s/%s/%s#seed=%d", t.spec.Case, t.name, t.spec.Loss, c.seed),
		Resilience: c.resilience.Policy(),
	}
	if err := c.applyAsyncReplay(&cal); err != nil {
		return err
	}
	defer c.fleet.Close()
	traceID := fmt.Sprintf("%s-%s-%s-seed%d", c.study, c.alg, c.loss, c.seed)
	coord, err := c.fleet.Start("simcal", obs.Default(), c.obs.Tracer(), traceID, stderr)
	switch {
	case err != nil:
		return err
	case coord != nil:
		// Workers <= 0 lets the fleet's capacity set the batch
		// parallelism (core.ConcurrencyHinter), not the local GOMAXPROCS.
		cal.Simulator = coord.Evaluator(specBytes)
	default:
		if cal.Simulator, err = t.spec.Build(); err != nil {
			return err
		}
		if cal.Workers <= 0 {
			cal.Workers = runtime.GOMAXPROCS(0)
		}
	}
	if c.cache {
		cal.Cache = cache.New(obs.Default())
		defer func() {
			st := cal.Cache.Stats()
			fmt.Fprintf(stderr, "cache: %d hits, %d misses, %d in-flight waits, %d entries\n",
				st.Hits, st.Misses, st.InflightWaits, st.Entries)
		}()
	}
	c.applyCheckpoint(&cal, stdout)

	fmt.Fprintf(stdout, "calibrating %s with %s/%s...\n", t.name, alg.Name(), t.spec.Loss)
	start := time.Now()
	res, err := experiments.CalibrateBest(context.Background(), c.jobs, cal, c.jobs)
	if err != nil {
		return err
	}
	report(stdout, res, start)
	fmt.Fprintf(stdout, "calibration error vs hidden truth: %.1f%%\n",
		core.CalibrationError(space, res.Best.Point, t.truth))
	return saveResult(stdout, c.out, res)
}

// applyCheckpoint wires -checkpoint and -resume into the calibrator.
// The calibration reads the journal; this only looks whether it is there.
func (c *config) applyCheckpoint(cal *core.Calibrator, stdout io.Writer) {
	if c.checkpoint == "" {
		return
	}
	cal.Checkpoint, cal.Resume = c.checkpoint, c.resume
	if !c.resume {
		return
	}
	if _, err := os.Stat(c.checkpoint); err == nil {
		fmt.Fprintf(stdout, "resuming from %s\n", c.checkpoint)
	} else {
		fmt.Fprintf(stdout, "no checkpoint at %s; starting fresh\n", c.checkpoint)
	}
}

// saveResult writes the result JSON when a path was given, atomically.
func saveResult(stdout io.Writer, path string, res *core.Result) error {
	if path == "" {
		return nil
	}
	if err := core.WriteFileAtomic(path, func(w io.Writer) error { return res.WriteJSON(w, true) }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "result written to %s\n", path)
	return nil
}

func report(stdout io.Writer, res *core.Result, start time.Time) {
	fmt.Fprintf(stdout, "evaluations: %d in %s\n", res.Evaluations, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "best loss:   %.6f\n", res.Best.Loss)
	fmt.Fprintln(stdout, "calibrated parameters:")
	names := make([]string, 0, len(res.Best.Point))
	for n := range res.Best.Point {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-24s %.6g\n", n, res.Best.Point[n])
	}
}
