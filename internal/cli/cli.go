// Package cli is the run plumbing shared by the simcal, simcald,
// simcal-worker and experiments binaries. Each piece is a flag group —
// a struct whose exported fields are the flags, with a Register method
// per set of flags a binary may carry — plus the lifecycle those flags
// configure. What the package hides is the start/stop order and the
// hardening defaults, which every binary would otherwise have to know:
//
//	start: Obs (trace file, HTTP plane) → Fleet (dist.Serve: listen,
//	       serve a coordinator; then wait for workers) → the binary's
//	       own work
//	stop:  the work → Fleet.Close (detach the status hooks, then
//	       dist.Server.Close: close the coordinator so workers see an
//	       orderly end, close the listener, wait for Serve; report chaos
//	       counts) → Obs.Close (flush and close the trace, print the
//	       snapshot, shut the HTTP plane down last so a late scrape
//	       never reads a closed coordinator)
//
// A binary registers only the groups whose flags it has; an
// unregistered group stays at its zero value, which is every flag's
// default.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/dist/chaos"
	"simcal/internal/obs"
	"simcal/internal/resilience"
	"simcal/internal/simspec"
)

// ErrUsage is returned by Parse (and by a run function that rejects its
// own arguments after printing why): the command line was wrong and the
// message is already on stderr. Main exits 2 on it without printing.
var ErrUsage = errors.New("usage error")

// Parse parses args into fs (created with flag.ContinueOnError) with
// parse errors and -h output on stderr. It returns flag.ErrHelp for -h
// and ErrUsage for any other parse error.
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return ErrUsage
	}
	return err
}

// Main is the body of a binary's main: it calls run with the process's
// arguments and streams and turns its error into an exit status. run
// has returned by then, so everything it deferred has happened.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, ErrUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// Obs is the observability group: a JSONL trace, the final metrics
// snapshot, and the HTTP plane (/metrics, /statusz, /healthz,
// /debug/pprof).
type Obs struct {
	Trace   string // -trace
	Metrics bool   // -metrics
	Pprof   string // -pprof (simcald binds it to -http)

	stdout, stderr io.Writer
	traceFile      *os.File
	tracer         *obs.Tracer
	srv            *obs.Server
}

// Register declares -metrics and -pprof.
func (o *Obs) Register(fs *flag.FlagSet) {
	fs.BoolVar(&o.Metrics, "metrics", false, "print the final metrics snapshot on exit")
	fs.StringVar(&o.Pprof, "pprof", "", "serve /metrics, /statusz, /healthz and /debug/pprof on this address (e.g. localhost:6060)")
}

// RegisterTrace declares -trace.
func (o *Obs) RegisterTrace(fs *flag.FlagSet) {
	fs.StringVar(&o.Trace, "trace", "", "write a structured JSONL trace of every calibration to this file")
}

// Start opens the trace file and, when an address is set, serves cfg on
// it (publishing the default registry as expvar name). Close undoes
// both.
func (o *Obs) Start(name string, cfg obs.ServerConfig, stdout, stderr io.Writer) error {
	o.stdout, o.stderr = stdout, stderr
	if o.Trace != "" {
		f, err := os.Create(o.Trace)
		if err != nil {
			return err
		}
		o.traceFile, o.tracer = f, obs.NewTracer(f)
	}
	if o.Pprof != "" {
		obs.Default().PublishExpvar(name)
		srv, err := obs.StartServer(o.Pprof, cfg)
		if err != nil {
			if o.traceFile != nil {
				o.traceFile.Close()
			}
			return fmt.Errorf("observability server: %w", err)
		}
		o.srv = srv
		fmt.Fprintf(stderr, "%s: serving on http://%s (/metrics /statusz /healthz /debug/pprof)\n", name, srv.Addr())
	}
	return nil
}

// Tracer is the -trace sink, nil when tracing is off.
func (o *Obs) Tracer() *obs.Tracer { return o.tracer }

// Observer feeds calibrations into the default registry and the trace.
// It is nil when no sink would read it, so an uninstrumented run pays
// nothing.
func (o *Obs) Observer() core.Observer {
	if o.tracer == nil && !o.Metrics && o.Pprof == "" {
		return nil
	}
	return core.NewObsObserver(obs.Default(), o.tracer)
}

// Close flushes and closes the trace, prints the metrics snapshot, and
// shuts the HTTP plane down last. It returns the first error. Closing
// an Obs that was never started does nothing.
func (o *Obs) Close() error {
	if o.stdout == nil {
		return nil
	}
	var err error
	if o.traceFile != nil {
		err = o.tracer.Flush()
		if cerr := o.traceFile.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(o.stderr, "trace written to %s\n", o.Trace)
		}
	}
	if o.Metrics {
		fmt.Fprintln(o.stdout, "metrics:")
		if werr := obs.Default().Snapshot().WriteText(o.stdout); err == nil {
			err = werr
		}
	}
	if o.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if serr := o.srv.Shutdown(ctx); err == nil {
			err = serr
		}
	}
	return err
}

// Chaos puts the deterministic fault injector of internal/dist/chaos
// between this process and its dist peers.
type Chaos struct {
	Profile string // -chaos-profile
	Seed    int64  // -chaos-seed
}

// Register declares -chaos-profile and -chaos-seed.
func (c *Chaos) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Profile, "chaos-profile", "", "inject seeded network faults on all dist connections, e.g. delay=0.1:20ms,corrupt=0.01,partition=5s+2s (see internal/dist/chaos)")
	fs.Int64Var(&c.Seed, "chaos-seed", 1, "seed for the -chaos-profile fault schedule (same seed replays the same faults); a worker also seeds its dial backoff jitter with it")
}

// Wrap returns the transport both the listening and the dialling side
// use: tcp itself, or tcp behind the injector when a profile is set.
// report prints the injected-fault tally; call it when the transport is
// done.
func (c *Chaos) Wrap(name string, tcp dist.TCP, stderr io.Writer) (tr dist.Transport, report func(), err error) {
	if c.Profile == "" {
		return tcp, func() {}, nil
	}
	prof, err := chaos.ParseProfile(c.Profile)
	if err != nil {
		return nil, nil, fmt.Errorf("-chaos-profile: %w", err)
	}
	ct, err := chaos.New(tcp, prof, c.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("-chaos-profile: %w", err)
	}
	fmt.Fprintf(stderr, "%s: chaos profile %q seed %d\n", name, c.Profile, c.Seed)
	return ct, func() { fmt.Fprintf(stderr, "%s: chaos faults injected: %s\n", name, ct.Counts()) }, nil
}

// Fleet is the coordinator side of the distributed plane: with -listen
// set, loss evaluations are leased to simcal-worker processes.
type Fleet struct {
	Listen      string // -listen
	DistWorkers int    // -dist-workers
	Chaos       Chaos

	mu    sync.Mutex
	coord *dist.Coordinator // what Refresh and Status read; nil unless serving
	stop  func()
}

// Register declares -listen and -dist-workers.
func (f *Fleet) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Listen, "listen", "", "distribute loss evaluations: listen for simcal-worker processes on this address (host:port) and lease evaluations to them")
	fs.IntVar(&f.DistWorkers, "dist-workers", 1, "with -listen: wait for this many connected workers before starting")
}

// config is the coordinator configuration the flags describe. The local
// factory is always set: without it a quarantined lease fails and an
// empty fleet blocks until a worker returns. Degradation to local
// evaluation after dist.DefaultDegradedGrace of an empty fleet runs at
// that default.
func (f *Fleet) config(name string, reg *obs.Registry, tracer *obs.Tracer, traceID string) dist.CoordinatorConfig {
	return dist.CoordinatorConfig{
		Name:         name,
		Registry:     reg,
		Tracer:       tracer,
		TraceID:      traceID,
		LocalFactory: simspec.BuildSimulator,
	}
}

// Start serves a coordinator on -listen and waits (up to five minutes)
// for -dist-workers workers. Without -listen it returns a nil
// coordinator and no error. Close undoes it.
func (f *Fleet) Start(name string, reg *obs.Registry, tracer *obs.Tracer, traceID string, stderr io.Writer) (*dist.Coordinator, error) {
	if f.Listen == "" {
		return nil, nil
	}
	tr, report, err := f.Chaos.Wrap(name, dist.TCP{}, stderr)
	if err != nil {
		return nil, err
	}
	srv, err := dist.Serve(tr, f.Listen, f.config(name, reg, tracer, traceID))
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.coord = srv.Coord
	f.stop = func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintf(stderr, "%s: coordinator: %v\n", name, err)
		}
		report()
	}
	f.mu.Unlock()

	fmt.Fprintf(stderr, "%s: coordinator listening on %s; waiting for %d worker(s)\n", name, srv.Addr(), f.DistWorkers)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := srv.Coord.WaitForWorkers(ctx, f.DistWorkers); err != nil {
		f.Close()
		return nil, err
	}
	return srv.Coord, nil
}

// Refresh is the obs.ServerConfig.Refresh hook: it brings the fleet
// gauges up to date before a scrape. Like Status it is safe before
// Start and after Close, when it does nothing.
func (f *Fleet) Refresh() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.coord != nil {
		f.coord.RefreshFleetGauges()
	}
}

// Status is the obs.ServerConfig.Status hook: the fleet view of
// /statusz, nil unless a coordinator is serving.
func (f *Fleet) Status() any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.coord == nil {
		return nil
	}
	return f.coord.Status()
}

// Close detaches the hooks, then closes the coordinator (workers see an
// orderly end and exit) and the listener, and reports the chaos tally.
// It is a no-op when nothing is serving.
func (f *Fleet) Close() {
	f.mu.Lock()
	stop := f.stop
	f.coord, f.stop = nil, nil
	f.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Resilience is the evaluation policy group: per-attempt timeouts and
// retries of transient failures.
type Resilience struct {
	EvalTimeout time.Duration // -eval-timeout
	EvalRetries int           // -eval-retries
}

// Register declares -eval-timeout and -eval-retries.
func (r *Resilience) Register(fs *flag.FlagSet) {
	fs.DurationVar(&r.EvalTimeout, "eval-timeout", 0, "per-attempt timeout of a loss evaluation; a timed-out attempt is retried (sets a resilience policy)")
	fs.IntVar(&r.EvalRetries, "eval-retries", 0, "max attempts per loss evaluation for transient failures (sets a resilience policy)")
}

// Policy is the resilience policy the flags imply, or nil when none is
// set (evaluations then run without timeouts or retries; panic
// isolation alone is always on). Setting either flag starts from
// resilience.DefaultPolicy's backoff, so -eval-timeout alone still
// retries transient failures.
func (r *Resilience) Policy() *resilience.Policy {
	if r.EvalTimeout <= 0 && r.EvalRetries <= 0 {
		return nil
	}
	p := resilience.DefaultPolicy()
	p.Timeout = r.EvalTimeout // 0 disables the per-attempt timeout
	if r.EvalRetries > 0 {
		p.MaxAttempts = r.EvalRetries
	}
	return &p
}
