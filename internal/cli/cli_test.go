package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/dist"
	"simcal/internal/obs"
)

// fleetOf parses args into a Fleet carrying the groups one binary
// registers.
func fleetOf(t *testing.T, chaos bool, args ...string) *Fleet {
	t.Helper()
	var f Fleet
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if chaos {
		f.Chaos.Register(fs)
	}
	if err := Parse(fs, args, io.Discard); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &f
}

// Every coordinator config has the local fallback and the default
// quarantine and degradation, whichever groups the binary registers and
// whether or not a chaos profile sits under it.
func TestFleetConfig(t *testing.T) {
	for _, tc := range []struct {
		binary string
		chaos  bool
		args   []string
	}{
		{"experiments", false, nil},
		{"simcald", false, nil},
		{"simcal", true, nil},
		{"simcal", true, []string{"-chaos-profile", "reset=0.1"}},
	} {
		f := fleetOf(t, tc.chaos, tc.args...)
		reg := obs.NewRegistry()
		cfg := f.config(tc.binary, reg, nil, "id")
		if cfg.LocalFactory == nil {
			t.Errorf("%s %v: LocalFactory is nil", tc.binary, tc.args)
		}
		if cfg.DegradedGrace != 0 {
			t.Errorf("%s %v: degradation moved off the coordinator default: %+v", tc.binary, tc.args, cfg)
		}
		if cfg.Name != tc.binary || cfg.Registry != reg || cfg.TraceID != "id" {
			t.Errorf("%s: identity not carried: %+v", tc.binary, cfg)
		}
	}
}

// The status hooks outlive the coordinator in both directions: the obs
// server starts before it exists and stops after it is closed.
func TestFleetHooksAndLifecycle(t *testing.T) {
	var f Fleet
	f.Refresh()
	if s := f.Status(); s != nil {
		t.Fatalf("Status before Start = %v, want nil", s)
	}
	f.Close() // nothing serving: no-op

	if coord, err := f.Start("test", obs.NewRegistry(), nil, "", io.Discard); coord != nil || err != nil {
		t.Fatalf("Start without -listen = %v, %v; want nil, nil", coord, err)
	}

	f = *fleetOf(t, false, "-listen", "127.0.0.1:0", "-dist-workers", "0")
	var stderr bytes.Buffer
	coord, err := f.Start("test", obs.NewRegistry(), nil, "", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Status().(dist.CoordinatorStatus); !ok {
		t.Fatalf("Status while serving = %T, want dist.CoordinatorStatus", f.Status())
	}
	f.Refresh()
	f.Close()
	if s := f.Status(); s != nil {
		t.Fatalf("Status after Close = %v, want nil", s)
	}
	f.Refresh()
	f.Close() // idempotent
	if err := coord.WaitForWorkers(t.Context(), 1); !errors.Is(err, dist.ErrCoordinatorClosed) {
		t.Fatalf("coordinator after Close: %v, want ErrCoordinatorClosed", err)
	}
	if !strings.Contains(stderr.String(), "test: coordinator listening on 127.0.0.1:") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestFleetStartErrors(t *testing.T) {
	f := fleetOf(t, true, "-listen", "127.0.0.1:0", "-chaos-profile", "bogus=1")
	if _, err := f.Start("test", obs.NewRegistry(), nil, "", io.Discard); err == nil || !strings.Contains(err.Error(), "-chaos-profile") {
		t.Fatalf("bad profile: %v", err)
	}
	f = fleetOf(t, false, "-listen", "not an address")
	if _, err := f.Start("test", obs.NewRegistry(), nil, "", io.Discard); err == nil {
		t.Fatal("bad -listen address: no error")
	}
	if f.Status() != nil {
		t.Fatal("failed Start left a coordinator attached")
	}
}

func TestChaosWrap(t *testing.T) {
	tcp := dist.TCP{DialTimeout: time.Second}
	var c Chaos
	tr, report, err := c.Wrap("w", tcp, io.Discard)
	if err != nil || tr != dist.Transport(tcp) {
		t.Fatalf("no profile: %v, %v; want the TCP transport itself", tr, err)
	}
	report()

	var stderr bytes.Buffer
	c = Chaos{Profile: "reset=0.5", Seed: 9}
	tr, report, err = c.Wrap("w", tcp, &stderr)
	if err != nil || tr == dist.Transport(tcp) {
		t.Fatalf("profile: %v, %v; want a wrapping transport", tr, err)
	}
	report()
	for _, want := range []string{`w: chaos profile "reset=0.5" seed 9`, "w: chaos faults injected: "} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q lacks %q", stderr.String(), want)
		}
	}
}

func TestResiliencePolicy(t *testing.T) {
	if p := (&Resilience{}).Policy(); p != nil {
		t.Fatalf("no flags: %+v, want nil", p)
	}
	p := (&Resilience{EvalTimeout: 2 * time.Second}).Policy()
	if p == nil || p.Timeout != 2*time.Second || p.MaxAttempts < 2 {
		t.Fatalf("-eval-timeout alone: %+v, want the default retries", p)
	}
	p = (&Resilience{EvalRetries: 5}).Policy()
	if p == nil || p.Timeout != 0 || p.MaxAttempts != 5 {
		t.Fatalf("-eval-retries 5: %+v", p)
	}
}

func TestObsLifecycle(t *testing.T) {
	if err := (&Obs{Metrics: true}).Close(); err != nil { // simcald defers Close before Start
		t.Fatalf("Close of an unstarted Obs: %v", err)
	}
	var off Obs
	if err := off.Start("test", obs.ServerConfig{}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if off.Observer() != nil || off.Tracer() != nil {
		t.Fatal("no sink is on, yet an observer or tracer exists")
	}

	trace := filepath.Join(t.TempDir(), "t.jsonl")
	o := Obs{Trace: trace, Metrics: true, Pprof: "127.0.0.1:0"}
	var stdout, stderr bytes.Buffer
	var scraped atomic.Bool
	if err := o.Start("test", obs.ServerConfig{Refresh: func() { scraped.Store(true) }}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if o.Observer() == nil || o.Tracer() == nil {
		t.Fatal("sinks are on, yet no observer or tracer")
	}
	m := regexp.MustCompile(`test: serving on (http://[^ ]+) `).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("stderr %q does not name the address", stderr.String())
	}
	resp, err := http.Get(m[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !scraped.Load() {
		t.Error("/metrics did not run the Refresh hook")
	}
	o.Tracer().Emit("probe", map[string]any{"k": 1})
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(trace); err != nil || !bytes.Contains(b, []byte("probe")) {
		t.Errorf("trace after Close = %q, %v", b, err)
	}
	if !strings.HasPrefix(stdout.String(), "metrics:\n") {
		t.Errorf("stdout %q lacks the snapshot", stdout.String())
	}
	if _, err := http.Get(m[1] + "/healthz"); err == nil {
		t.Error("HTTP plane still up after Close")
	}

	bad := Obs{Pprof: "not an address", Trace: filepath.Join(t.TempDir(), "t.jsonl")}
	if err := bad.Start("test", obs.ServerConfig{}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "observability server") {
		t.Fatalf("bad address: %v", err)
	}
}

func TestParse(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.Int("n", 0, "a number")
		return fs
	}
	var stderr bytes.Buffer
	if err := Parse(newFS(), []string{"-n", "3"}, &stderr); err != nil || stderr.Len() != 0 {
		t.Fatalf("good args: %v, stderr %q", err, stderr.String())
	}
	if err := Parse(newFS(), []string{"-h"}, &stderr); !errors.Is(err, flag.ErrHelp) || !strings.Contains(stderr.String(), "a number") {
		t.Fatalf("-h: %v, stderr %q", err, stderr.String())
	}
	stderr.Reset()
	if err := Parse(newFS(), []string{"-bogus"}, &stderr); !errors.Is(err, ErrUsage) || !strings.Contains(stderr.String(), "-bogus") {
		t.Fatalf("-bogus: %v, stderr %q", err, stderr.String())
	}
}

// Each flag has one declaration, hence one help string; README is the
// other place a user meets it, and must name every flag a group
// declares.
func TestREADMEMentionsEveryGroupFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("groups", flag.ContinueOnError)
	var o Obs
	var f Fleet
	var r Resilience
	o.Register(fs)
	o.RegisterTrace(fs)
	f.Register(fs)
	f.Chaos.Register(fs)
	r.Register(fs)
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		if !regexp.MustCompile("(^|[^a-z-])-" + fl.Name + "([^a-z-]|$)").Match(readme) {
			t.Errorf("README.md does not mention -%s", fl.Name)
		}
		if fl.Usage == "" {
			t.Errorf("-%s has no help string", fl.Name)
		}
	})
	if n != 9 {
		t.Errorf("the groups declare %d flags, want 9", n)
	}
}
