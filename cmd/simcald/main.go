// Command simcald is calibration-as-a-service: a long-lived server
// that accepts calibration jobs over HTTP and multiplexes them onto a
// shared evaluation backend — local simulator builds, or a fleet of
// simcal-worker processes when -listen is set. Multiple tenants share
// one daemon: per-tenant quotas bound open jobs, dispatch is
// round-robin by tenant, and a content-addressed evaluation cache
// shares results between jobs calibrating the same spec.
//
// The job API and the observability plane live on one address:
//
//	simcald -http :8080                        # local evaluation
//	simcald -http :8080 -listen :9090 -dist-workers 2   # shared fleet
//	simcald -http :8080 -state-dir ./simcald-state      # durable jobs
//
//	curl -s localhost:8080/v1/jobs -d @job.json         # submit
//	curl -s localhost:8080/v1/jobs/j-000001             # status
//	curl -s localhost:8080/v1/jobs/j-000001/events?follow=1
//	curl -s localhost:8080/v1/jobs/j-000001/result      # == simcal -out
//	curl -s -X DELETE localhost:8080/v1/jobs/j-000001   # cancel
//	curl -s localhost:8080/statusz                      # jobs + fleet
//
// A job's spec is the canonical simulator spec; `simcal -print-spec`
// emits it for any simcal flag combination. Every calibration is
// deterministic, so a job's result is bitwise identical to running the
// same calibration alone with simcal — regardless of what the other
// tenants are doing. With -state-dir, jobs survive restarts: the
// journal re-queues unfinished jobs and they resume from their
// checkpoints.
//
// On SIGINT/SIGTERM the job server stops first (runs are cancelled and
// journalled as resumable), then the fleet and the HTTP plane in the
// order internal/cli fixes for every binary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"simcal/internal/cache"
	"simcal/internal/cli"
	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/service"
)

func main() { cli.Main("simcald", run) }

// config is simcald's command line: its own flags and the shared
// groups. The observability plane is always on — it carries the job
// API — so its address is -http rather than -pprof.
type config struct {
	maxRunning      int
	tenantQuota     int
	stateDir        string
	checkpointEvery int
	cache           bool
	asyncInflight   int

	obs   cli.Obs
	fleet cli.Fleet
}

func (c *config) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("simcald", flag.ContinueOnError)
	fs.StringVar(&c.obs.Pprof, "http", "localhost:8080", "serve the job API and observability plane on this address")
	fs.IntVar(&c.maxRunning, "max-running", 2, "concurrently running jobs")
	fs.IntVar(&c.tenantQuota, "tenant-quota", 8, "max open (pending+running) jobs per tenant; negative disables")
	fs.StringVar(&c.stateDir, "state-dir", "", "durable job state: journal, checkpoints, results (jobs resume after restarts)")
	fs.IntVar(&c.checkpointEvery, "checkpoint-every", 25, "evaluations between job checkpoint snapshots")
	fs.BoolVar(&c.cache, "cache", true, "memoize loss evaluations across jobs (content-addressed by spec fingerprint)")
	fs.IntVar(&c.asyncInflight, "async-inflight", 0, "async-bo jobs: max in-flight evaluations per job (0 = job worker count)")

	c.fleet.Register(fs)
	c.fleet.Hardening.Register(fs)
	return fs
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	var c config
	if err := cli.Parse(c.flagSet(), args, stderr); err != nil {
		return err
	}
	reg := obs.Default()
	svcCfg := service.Config{
		MaxRunning:      c.maxRunning,
		TenantQuota:     c.tenantQuota,
		StateDir:        c.stateDir,
		CheckpointEvery: c.checkpointEvery,
		Registry:        reg,
	}
	if c.asyncInflight > 0 {
		svcCfg.Algorithm = func(name string) (core.Algorithm, error) {
			alg, err := opt.ByName(name)
			if ab, ok := alg.(*opt.AsyncBayesOpt); ok {
				ab.MaxInFlight = c.asyncInflight
			}
			return alg, err
		}
	}
	if c.cache {
		svcCfg.Cache = cache.New(reg)
	}

	// Deferred in reverse of the stop order: job server, fleet, HTTP
	// plane. (obs.Close is registered before obs.Start can run because
	// the plane mounts the job server, which needs the fleet; closing an
	// unstarted Obs does nothing.)
	defer func() {
		if cerr := c.obs.Close(); err == nil {
			err = cerr
		}
	}()
	defer c.fleet.Close()
	coord, err := c.fleet.Start("simcald", reg, nil, "", stderr)
	if err != nil {
		return err
	}
	if coord != nil {
		// Leases carry the owning job's ID, so one job's cancellation
		// purges only its own queue entries from the shared fleet.
		svcCfg.Backend = func(job string, spec json.RawMessage) (core.Simulator, error) {
			return coord.JobEvaluator(job, spec), nil
		}
		svcCfg.CancelJob = coord.CancelJob
	}
	svc, err := service.NewServer(svcCfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	err = c.obs.Start("simcald", obs.ServerConfig{
		Registry: reg,
		Refresh:  c.fleet.Refresh,
		Status:   c.fleet.Status,
		Jobs:     func() any { return svc.Summary() },
		Mount:    svc.Routes,
	}, stdout, stderr)
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, "simcald: job API at /v1/jobs")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(stderr, "simcald: shutting down")
	return nil
}
