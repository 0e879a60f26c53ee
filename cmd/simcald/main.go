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
// Shutdown ordering on SIGINT/SIGTERM mirrors simcal: first the job
// server (cancel runs, journal them as resumable), then the lease
// coordinator (workers exit cleanly), then the HTTP plane — so
// /statusz never reads a closed coordinator.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/service"
	"simcal/internal/simspec"
)

func main() {
	var (
		httpAddr    = flag.String("http", "localhost:8080", "serve the job API and observability plane on this address")
		listen      = flag.String("listen", "", "distribute loss evaluations: listen for simcal-worker processes on this address")
		distWorkers = flag.Int("dist-workers", 1, "with -listen: wait for this many connected workers before serving jobs")

		maxRunning  = flag.Int("max-running", 2, "concurrently running jobs")
		tenantQuota = flag.Int("tenant-quota", 8, "max open (pending+running) jobs per tenant; negative disables")
		stateDir    = flag.String("state-dir", "", "durable job state: journal, checkpoints, results (jobs resume after restarts)")
		ckptEvery   = flag.Int("checkpoint-every", 25, "evaluations between job checkpoint snapshots")
		useCache    = flag.Bool("cache", true, "memoize loss evaluations across jobs (content-addressed by spec fingerprint)")

		asyncInflight = flag.Int("async-inflight", 0, "async-bo jobs: max in-flight evaluations per job (0 = job worker count)")

		leaseResend   = flag.Duration("lease-resend", 0, "with -listen: redeliver an unanswered lease after this long (0 = off)")
		maxRequeues   = flag.Int("max-requeues", 0, "with -listen: quarantine a lease after this many requeues (0 = default 3)")
		degradedGrace = flag.Duration("degraded-grace", 0, "with -listen: drain locally after the fleet has been empty this long (0 = default 30s)")
	)
	flag.Parse()
	if err := run(daemonCfg{
		httpAddr:      *httpAddr,
		listen:        *listen,
		distWorkers:   *distWorkers,
		maxRunning:    *maxRunning,
		tenantQuota:   *tenantQuota,
		stateDir:      *stateDir,
		ckptEvery:     *ckptEvery,
		useCache:      *useCache,
		asyncInflight: *asyncInflight,
		leaseResend:   *leaseResend,
		maxRequeues:   *maxRequeues, degradedGrace: *degradedGrace,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "simcald:", err)
		os.Exit(1)
	}
}

type daemonCfg struct {
	httpAddr      string
	listen        string
	distWorkers   int
	maxRunning    int
	tenantQuota   int
	stateDir      string
	ckptEvery     int
	useCache      bool
	asyncInflight int
	leaseResend   time.Duration
	maxRequeues   int
	degradedGrace time.Duration
}

func run(cfg daemonCfg) error {
	reg := obs.Default()
	reg.PublishExpvar("simcald")

	// Backend first: with -listen, the shared lease coordinator every
	// job's evaluations multiplex onto.
	var coord *dist.Coordinator
	var ln dist.Listener
	svcCfg := service.Config{
		MaxRunning:      cfg.maxRunning,
		TenantQuota:     cfg.tenantQuota,
		StateDir:        cfg.stateDir,
		CheckpointEvery: cfg.ckptEvery,
		Registry:        reg,
	}
	if cfg.asyncInflight > 0 {
		svcCfg.Algorithm = func(name string) (core.Algorithm, error) {
			alg, err := opt.ByName(name)
			if ab, ok := alg.(*opt.AsyncBayesOpt); ok {
				ab.MaxInFlight = cfg.asyncInflight
			}
			return alg, err
		}
	}
	if cfg.useCache {
		svcCfg.Cache = cache.New(reg)
	}
	if cfg.listen != "" {
		var err error
		ln, err = dist.TCP{}.Listen(cfg.listen)
		if err != nil {
			return err
		}
		coord = dist.NewCoordinator(dist.CoordinatorConfig{
			Name:          "simcald",
			Registry:      reg,
			LocalFactory:  simspec.BuildSimulator,
			MaxRequeues:   cfg.maxRequeues,
			DegradedGrace: cfg.degradedGrace,
			ResendAfter:   cfg.leaseResend,
		})
		go func() {
			if err := coord.Serve(ln); err != nil {
				fmt.Fprintln(os.Stderr, "simcald: coordinator:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "coordinator listening on %s; waiting for %d worker(s)\n", ln.Addr(), cfg.distWorkers)
		wctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		err = coord.WaitForWorkers(wctx, cfg.distWorkers)
		cancel()
		if err != nil {
			coord.Close()
			ln.Close()
			return err
		}
		// Leases carry the owning job's ID, so one job's cancellation
		// purges only its own queue entries from the shared fleet.
		svcCfg.Backend = func(job string, spec json.RawMessage) (core.Simulator, error) {
			return coord.JobEvaluator(job, spec), nil
		}
		svcCfg.CancelJob = coord.CancelJob
	}

	svc, err := service.NewServer(svcCfg)
	if err != nil {
		if coord != nil {
			coord.Close()
			ln.Close()
		}
		return err
	}

	srv, err := obs.StartServer(cfg.httpAddr, obs.ServerConfig{
		Registry: reg,
		Refresh: func() {
			if coord != nil {
				coord.RefreshFleetGauges()
			}
		},
		Status: func() any {
			if coord != nil {
				return coord.Status()
			}
			return nil
		},
		Jobs:  func() any { return svc.Summary() },
		Mount: svc.Routes,
	})
	if err != nil {
		svc.Close()
		if coord != nil {
			coord.Close()
			ln.Close()
		}
		return fmt.Errorf("http server: %w", err)
	}
	fmt.Fprintf(os.Stderr, "simcald serving jobs on http://%s/v1/jobs (/metrics /statusz /healthz)\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "simcald: shutting down")

	// The shutdown order the simcal satellite fix established: job
	// server first (its runs journal as resumable), then the
	// coordinator (workers exit cleanly), and the HTTP plane last so a
	// late /statusz scrape never reads a closed coordinator.
	svc.Close()
	if coord != nil {
		coord.Close()
		ln.Close()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(sctx)
}
