// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run table3            # one artifact
//	experiments -run all               # everything
//	experiments -run figure5 -full     # paper-scale (hours)
//	experiments -run figure2 -evals 200 -seed 7
//
// Artifact ids: table1 table2 table3 figure1 figure2 baseline1 figure3
// section55 table4 table5 figure4 figure5 baseline2 section65, plus the
// runtime-robustness sweep `faults` (not part of 'all').
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"simcal/internal/cache"
	"simcal/internal/cli"
	"simcal/internal/core"
	"simcal/internal/experiments"
	"simcal/internal/obs"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
)

func main() { cli.Main("experiments", run) }

// config is the experiments command line: its own flags and the shared
// groups.
type config struct {
	run        string
	full       bool
	evals      int
	seed       int64
	workers    int
	budget     time.Duration
	jobs       int
	cache      bool
	jsonDir    string
	checkpoint string

	obs        cli.Obs
	fleet      cli.Fleet
	resilience cli.Resilience
}

func (c *config) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.StringVar(&c.run, "run", "all", "artifact id to regenerate (or 'all')")
	fs.BoolVar(&c.full, "full", false, "paper-scale configuration (hours) instead of the fast default")
	fs.IntVar(&c.evals, "evals", 0, "override loss evaluations per calibration")
	fs.Int64Var(&c.seed, "seed", 0, "override random seed")
	fs.IntVar(&c.workers, "workers", 0, "override parallel evaluation workers")
	fs.DurationVar(&c.budget, "budget", 0, "optional wall-clock budget per calibration")
	fs.IntVar(&c.jobs, "jobs", 1, "independent calibrations run concurrently per driver (1 = sequential; results are identical either way)")
	fs.BoolVar(&c.cache, "cache", false, "memoize loss evaluations across calibrations (identical results, fewer simulations)")
	fs.StringVar(&c.jsonDir, "json", "", "also write each artifact's result as JSON into this directory")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "log completed grid cells to this JSONL file; re-running with the same flags resumes only the unfinished cells")

	c.obs.Register(fs)
	c.obs.RegisterTrace(fs)
	// The hardening and chaos groups stay at their defaults, and there
	// is no -breaker: a grid run should finish every cell.
	c.fleet.Register(fs)
	c.resilience.Register(fs)
	return fs
}

// options resolves the flags into driver options.
func (c *config) options() experiments.Options {
	o := experiments.Default()
	if c.full {
		o = experiments.Full()
	}
	if c.evals > 0 {
		o.MaxEvals = c.evals
	}
	if c.seed != 0 {
		o.Seed = c.seed
	}
	if c.workers > 0 {
		o.Workers = c.workers
	}
	if c.budget > 0 {
		o.Budget = c.budget
	}
	if c.jobs > 1 {
		o.Jobs = c.jobs
	}
	if c.cache {
		o.Cache = cache.New(obs.Default())
	}
	o.Resilience = c.resilience.Policy()
	return o
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	var c config
	if err := cli.Parse(c.flagSet(), args, stderr); err != nil {
		return err
	}
	logger := obs.NewLogger(stderr)
	o := c.options()

	if c.checkpoint != "" {
		// The meta string fingerprints every option that changes cell
		// results; a log written under different options is refused.
		meta := fmt.Sprintf("seed=%d evals=%d budget=%s full=%v", o.Seed, o.MaxEvals, o.Budget, c.full)
		l, err := experiments.OpenRunLog(c.checkpoint, meta)
		if err != nil {
			return err
		}
		defer l.Close()
		o.RunLog = l
		if n := l.Len(); n > 0 {
			logger.Printf("resuming: %d completed cells in %s", n, c.checkpoint)
		}
	}

	// Stop order (internal/cli): the fleet closes before the obs plane.
	if err := c.obs.Start("experiments", obs.ServerConfig{Refresh: c.fleet.Refresh, Status: c.fleet.Status}, stdout, stderr); err != nil {
		return err
	}
	defer func() {
		if cerr := c.obs.Close(); err == nil {
			err = cerr
		}
	}()
	o.Observer = c.obs.Observer()

	defer c.fleet.Close()
	traceID := fmt.Sprintf("experiments-%s-seed%d", c.run, o.Seed)
	coord, err := c.fleet.Start("experiments", obs.Default(), c.obs.Tracer(), traceID, stderr)
	if err != nil {
		return err
	}
	if coord != nil {
		o.Remote = func(sp simspec.Spec) (core.Simulator, error) {
			b, err := sp.Canonical()
			if err != nil {
				return nil, err
			}
			return coord.Evaluator(b), nil
		}
	}

	ids := strings.Split(c.run, ",")
	if c.run == "all" {
		ids = []string{"table1", "table2", "table3", "figure1", "figure2", "baseline1",
			"figure3", "section55", "table4", "table5", "figure4", "figure5", "baseline2", "section65",
			"ablation-alg", "ablation-budget", "ablation-storage", "casestudy3"}
	}
	ctx := context.Background()
	var failed []string
	for _, id := range ids {
		start := time.Now()
		logger.Printf("==> %s", id)
		if err := runOne(ctx, stdout, id, o, c.jsonDir); err != nil {
			// Keep going: one broken artifact should not hide the rest,
			// but the process must still exit non-zero at the end.
			logger.Printf("FAILED %s: %v", id, err)
			failed = append(failed, id)
			continue
		}
		logger.Printf("    %s done (%s)", id, time.Since(start).Round(time.Millisecond))
	}
	if o.Cache != nil {
		st := o.Cache.Stats()
		logger.Printf("cache: %d hits, %d misses, %d in-flight waits, %d entries",
			st.Hits, st.Misses, st.InflightWaits, st.Entries)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d artifact(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// saveJSON writes v as <dir>/<id>.json when dir is set.
func saveJSON(dir, id string, v any) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".json"))
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func runOne(ctx context.Context, stdout io.Writer, id string, o experiments.Options, jsonDir string) error {
	record := func(v any) error { return saveJSON(jsonDir, id, v) }
	switch id {
	case "table1":
		var rows [][]string
		for _, r := range experiments.Table1Rows() {
			rows = append(rows, []string{
				string(r.App),
				intsToString(r.Sizes),
				floatsToString(r.WorkSeconds),
				floatsToString(r.FootprintsMB),
				fmt.Sprintf("%v", r.Generated),
			})
		}
		fmt.Fprint(stdout, experiments.FormatTable(
			[]string{"application", "sizes(#tasks)", "work/task(s)", "footprints(MB)", "generated"}, rows))
	case "table2":
		var rows [][]string
		for _, r := range experiments.Table2Rows() {
			rows = append(rows, []string{r.Version, fmt.Sprintf("%d", r.Params), strings.Join(r.Names, ",")})
		}
		fmt.Fprint(stdout, experiments.FormatTable([]string{"version", "#params", "parameters"}, rows))
	case "table4":
		var rows [][]string
		for _, r := range experiments.Table4Rows() {
			rows = append(rows, []string{r.Version, fmt.Sprintf("%d", r.Params), strings.Join(r.Names, ",")})
		}
		fmt.Fprint(stdout, experiments.FormatTable([]string{"version", "#params", "parameters"}, rows))
	case "table3":
		res, err := experiments.Table3(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatMatrix("calib-err", res.Algorithms, res.Losses, res.Errors))
		fmt.Fprintf(stdout, "winner: %s with %s\n", res.WinnerAlg, res.WinnerLoss)
	case "figure1":
		res, err := experiments.Figure1(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loss vs time, app=%s\n", res.App)
		fmt.Fprint(stdout, experiments.FormatConvergence(res.Points, 20))
	case "figure2":
		res, err := experiments.Figure2(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatVersionAccuracy(res.Versions))
		fmt.Fprintf(stdout, "best version: %s\n", res.Best)
	case "baseline1":
		res, err := experiments.Baseline1(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spec-based error:  %.1f%%\ncalibrated error:  %.1f%%\n", res.SpecError, res.CalibratedError)
		apps := make([]wfgen.App, 0, len(res.PerApp))
		for a := range res.PerApp {
			apps = append(apps, a)
		}
		sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
		for _, a := range apps {
			fmt.Fprintf(stdout, "  %-14s %.1f%%\n", a, res.PerApp[a])
		}
	case "figure3":
		res, err := experiments.Figure3(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatFigure3(res))
	case "section55":
		res, err := experiments.Section55(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "baseline (diverse) test loss: %.4f\n", res.BaselineLoss)
		fmt.Fprintf(stdout, "restricted options worse:     %d/%d\n", res.WorseCount, res.TotalRestricted)
		keys := make([]string, 0, len(res.RestrictedLosses))
		for k := range res.RestrictedLosses {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  %-28s %.4f\n", k, res.RestrictedLosses[k])
		}
		fmt.Fprintf(stdout, "chain-only: %.4f  forkjoin-only: %.4f  both: %.4f\n", res.ChainLoss, res.ForkjoinLoss, res.BothLoss)
	case "table5":
		res, err := experiments.Table5(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "calibration error:")
		fmt.Fprint(stdout, experiments.FormatMatrix("alg", res.Algorithms, res.Losses, res.CalibErrors))
		fmt.Fprintln(stdout, "relative avg transfer-rate error:")
		fmt.Fprint(stdout, experiments.FormatMatrix("alg", res.Algorithms, res.Losses, res.RateErrors))
		fmt.Fprintf(stdout, "winner: %s with %s\n", res.WinnerAlg, res.WinnerLoss)
	case "figure4":
		res, err := experiments.Figure4(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loss vs time, %d nodes\n", res.Nodes)
		fmt.Fprint(stdout, experiments.FormatConvergence(res.Points, 20))
	case "figure5":
		res, err := experiments.Figure5(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatVersionAccuracy(res.Versions))
		fmt.Fprintf(stdout, "best version: %s\n", res.Best)
	case "baseline2":
		res, err := experiments.Baseline2(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spec-based error:  %.1f%%\ncalibrated error:  %.1f%%\n", res.SpecError, res.CalibratedError)
		for b, e := range res.PerBenchmark {
			fmt.Fprintf(stdout, "  %-10s %.1f%%\n", b, e)
		}
	case "section65":
		res, err := experiments.Section65(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Stencil error from P2P calibration:    %.1f%%\n", res.StencilFromP2P)
		fmt.Fprintf(stdout, "Stencil error from native calibration: %.1f%%\n", res.StencilNative)
		nodes := make([]int, 0, len(res.ScaleErrors))
		for n := range res.ScaleErrors {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes {
			tag := ""
			if n == res.TrainNodes {
				tag = " (training scale)"
			}
			fmt.Fprintf(stdout, "  %4d nodes: %.1f%%%s\n", n, res.ScaleErrors[n], tag)
		}
	case "casestudy3":
		res, err := experiments.CaseStudy3(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatVersionAccuracy(res.Versions))
		fmt.Fprintf(stdout, "best version: %s\n", res.Best)
	case "ablation-alg":
		res, err := experiments.AblationAlgorithms(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		for _, name := range res.Order {
			fmt.Fprintf(stdout, "  %-8s best loss %.4f\n", name, res.Losses[name])
		}
		fmt.Fprintf(stdout, "BO-variant spread (max/min): %.2fx\n", res.BOSpread)
	case "ablation-budget":
		res, err := experiments.AblationBudget(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		for i, budget := range res.Budgets {
			fmt.Fprintf(stdout, "  %5d evals: best loss %.4f\n", budget, res.Losses[i])
		}
	case "ablation-storage":
		res, err := experiments.AblationStorageValue(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "data-heavy workloads: submit-only %.1f%%, all-nodes %.1f%%\n",
			res.DataHeavySubmitOnly, res.DataHeavyAllNodes)
		fmt.Fprintf(stdout, "data-free  workloads: submit-only %.1f%%, all-nodes %.1f%%\n",
			res.DataFreeSubmitOnly, res.DataFreeAllNodes)
	case "faults":
		// Not part of 'all': it measures the calibration runtime, not a
		// paper artifact.
		res, err := experiments.Faults(ctx, o)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "calibration-error degradation vs injected fault rate:")
		for _, r := range res.Rows {
			fmt.Fprintf(stdout, "  rate %4.0f%%: calib-err %6.1f%%  evals %d  injected %d (panic %d, hang %d, transient %d, nan %d)  recovered: panics %d, retries %d, timeouts %d\n",
				100*r.Rate, r.CalibError, r.Evaluations, r.Injected.Total(),
				r.Injected.Panics, r.Injected.Hangs, r.Injected.Transients, r.Injected.NaNs,
				r.PanicsRecovered, r.Retries, r.Timeouts)
		}
	default:
		return fmt.Errorf("unknown artifact %q", id)
	}
	return nil
}

func intsToString(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}

func floatsToString(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%g", x)
	}
	return strings.Join(parts, ",")
}
