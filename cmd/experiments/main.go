// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run table3            # one artifact
//	experiments -run all               # everything
//	experiments -run figure5 -full     # paper-scale (hours)
//	experiments -run figure2 -evals 200 -seed 7
//
// The artifact ids are the rows of experiments.Artifacts; DESIGN.md §4
// indexes them against the paper.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"simcal/internal/cache"
	"simcal/internal/cli"
	"simcal/internal/core"
	"simcal/internal/experiments"
	"simcal/internal/obs"
	"simcal/internal/simspec"
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
	// The chaos group stays at its defaults.
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
		ids = nil
		for _, a := range experiments.Artifacts {
			if a.All {
				ids = append(ids, a.ID)
			}
		}
	}
	ctx := context.Background()
	var failed []string
	for _, id := range ids {
		start := time.Now()
		err := fmt.Errorf("unknown artifact %q", id)
		if a, ok := experiments.LookupArtifact(id); ok {
			logger.Printf("==> %s: %s", id, a.Paper)
			err = runOne(ctx, stdout, a, o, c.jsonDir)
		}
		if err != nil {
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

// saveJSON writes v as <dir>/<id>.json when dir is set, atomically: a
// failed or killed run leaves no torn file.
func saveJSON(dir, id string, v any) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return core.WriteFileAtomic(filepath.Join(dir, id+".json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// runOne regenerates one artifact: run it, record its JSON, print it.
func runOne(ctx context.Context, stdout io.Writer, a experiments.Artifact, o experiments.Options, jsonDir string) error {
	res, err := a.Run(ctx, o)
	if err != nil {
		return err
	}
	if err := saveJSON(jsonDir, a.ID, res); err != nil {
		return err
	}
	res.WriteText(stdout)
	return nil
}
