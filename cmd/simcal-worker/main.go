// Command simcal-worker serves loss evaluations to a distributed
// calibration coordinator (simcal -listen, or experiments -listen).
// It dials the coordinator, rebuilds simulators from the specs carried
// by each lease, and streams results back; the calibration trajectory
// is bitwise identical to a serial run regardless of how many workers
// participate (see internal/dist).
//
// Usage:
//
//	simcal-worker -connect host:9090
//	simcal-worker -connect host:9090 -capacity 8 -connect-retries 40
//	simcal-worker -connect host:9090 -pprof localhost:6061 -metrics
//	simcal-worker -connect host:9090 -chaos-profile delay=0.05:10ms,corrupt=0.01 -chaos-seed 42
//
// Dial attempts back off exponentially from -retry-delay up to
// -retry-max-delay. With -resume (the default) the worker survives
// mid-run connection drops: it redials, re-handshakes, and continues
// serving; the coordinator requeues whatever the dead session held.
// -chaos-profile injects deterministic, seeded network faults between
// this worker and the coordinator for failure testing (see
// internal/dist/chaos).
//
// Each result frame carries its evaluation's timing and outcome, from
// which the coordinator keeps this worker's worker.eval_ns and outcome
// counts in its /metrics and a dist_worker_eval event in its JSONL
// trace, labeled with this worker's name. The worker's other metrics
// (simulator cache, in-flight leases, DES-engine counters) never leave
// it: -pprof serves them on the worker's own /metrics, with /statusz
// and the pprof endpoints.
//
// The process exits 0 when the coordinator closes the connection (the
// calibration finished) and non-zero on dial or protocol errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"simcal/internal/cli"
	"simcal/internal/dist"
	"simcal/internal/obs"
	"simcal/internal/simspec"
)

func main() { cli.Main("simcal-worker", run) }

// config is the worker's command line: its own flags and the shared
// groups (no -trace: an evaluation's worker-side timing travels to the
// coordinator's trace on its result frame).
type config struct {
	connect        string
	capacity       int
	name           string
	connectRetries int
	retryDelay     time.Duration
	retryMaxDelay  time.Duration
	dialTimeout    time.Duration
	resume         bool

	obs   cli.Obs
	chaos cli.Chaos
}

func (c *config) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("simcal-worker", flag.ContinueOnError)
	fs.StringVar(&c.connect, "connect", "", "coordinator address (host:port), required")
	fs.IntVar(&c.capacity, "capacity", 0, "concurrent evaluation leases to accept (default GOMAXPROCS)")
	fs.StringVar(&c.name, "name", "", "worker name reported to the coordinator (default host/pid)")
	fs.IntVar(&c.connectRetries, "connect-retries", 0, "extra dial attempts for coordinators that are still starting")
	fs.DurationVar(&c.retryDelay, "retry-delay", 250*time.Millisecond, "base of the capped exponential backoff between dial attempts")
	fs.DurationVar(&c.retryMaxDelay, "retry-max-delay", 5*time.Second, "cap on the exponential backoff between dial attempts")
	fs.DurationVar(&c.dialTimeout, "dial-timeout", dist.DefaultDialTimeout, "per-attempt TCP dial timeout")
	fs.BoolVar(&c.resume, "resume", true, "redial and re-handshake after a mid-run connection drop instead of exiting")

	c.obs.Register(fs)
	c.chaos.Register(fs)
	return fs
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	var c config
	fs := c.flagSet()
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if c.connect == "" {
		fmt.Fprintln(stderr, "simcal-worker: -connect is required")
		fs.Usage()
		return cli.ErrUsage
	}
	if c.capacity <= 0 {
		c.capacity = runtime.GOMAXPROCS(0)
	}
	if c.name == "" {
		host, _ := os.Hostname()
		c.name = fmt.Sprintf("%s/%d", host, os.Getpid())
	}
	w, err := dist.NewWorker(dist.WorkerConfig{
		Name:     c.name,
		Capacity: c.capacity,
		Factory:  simspec.BuildSimulator,
		Registry: obs.Default(),
	})
	if err != nil {
		return err
	}
	err = c.obs.Start("simcal-worker", obs.ServerConfig{
		Status: func() any {
			return map[string]any{"worker": c.name, "capacity": c.capacity, "coordinator": c.connect}
		},
	}, stdout, stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := c.obs.Close(); err == nil {
			err = cerr
		}
	}()
	tr, report, err := c.chaos.Wrap("simcal-worker", dist.TCP{DialTimeout: c.dialTimeout}, stderr)
	if err != nil {
		return err
	}
	defer report()
	fmt.Fprintf(stderr, "simcal-worker %s connecting to %s (capacity %d)\n", c.name, c.connect, c.capacity)
	err = w.RunSession(context.Background(), tr, c.connect, dist.SessionConfig{
		MaxDialAttempts: c.connectRetries + 1,
		BaseDelay:       c.retryDelay,
		MaxDelay:        c.retryMaxDelay,
		Seed:            c.chaos.Seed,
		Resume:          c.resume,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, "simcal-worker: coordinator closed the connection; exiting")
	return nil
}
