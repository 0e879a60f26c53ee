package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"simcal/internal/cli"
	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/simspec"
)

// parentFlags is simcal-worker's flag set at the commit before cmd/ was
// rebuilt on internal/cli (7f8c30e), name → default, minus the two
// flags that change deleted: -heartbeat and -heartbeat-timeout could
// only be set out of step with the coordinator, which has no such flag.
// PR 23 deleted -telemetry-every with the frame it paced: telemetry
// rides result and heartbeat frames, so there is no cadence to set.
// The session cap went because nothing set it: a resuming worker stops
// when the coordinator closes in order or -connect-retries runs out.
// DeepEqual also means no binary may gain a flag.
var parentFlags = map[string]string{
	"capacity": "0", "chaos-profile": "", "chaos-seed": "1", "connect": "", "connect-retries": "0",
	"dial-timeout": "10s", "metrics": "false", "name": "", "pprof": "",
	"resume": "true", "retry-delay": "250ms", "retry-max-delay": "5s",
}

func TestFlagsMatchParent(t *testing.T) {
	got := map[string]string{}
	new(config).flagSet().VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, parentFlags) {
		t.Errorf("flags (name → default)\n got %v\nwant %v", got, parentFlags)
	}
}

func TestREADMEMentionsEveryFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	new(config).flagSet().VisitAll(func(f *flag.Flag) {
		if !regexp.MustCompile("(^|[^a-z-])-" + f.Name + "([^a-z-]|$)").Match(readme) {
			t.Errorf("README.md does not mention -%s", f.Name)
		}
	})
}

func TestConnectIsRequired(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(nil, io.Discard, &stderr); !errors.Is(err, cli.ErrUsage) || !strings.Contains(stderr.String(), "-connect is required") {
		t.Fatalf("no -connect: %v, stderr %q", err, stderr.String())
	}
}

// Two in-process workers serve a real calibration over localhost TCP:
// the fleet's result equals the locally built simulator's bit for bit,
// and once the coordinator closes each run returns nil — the worker saw
// an orderly close, did not redial (-resume is on by default), and went
// through its deferred shutdown instead of os.Exit.
func TestWorkersServeACalibrationAndExitCleanly(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	type exit struct {
		err            error
		stdout, stderr string
	}
	exits := make(chan exit, 2)
	for _, name := range []string{"a", "b"} {
		go func() {
			var stdout, stderr bytes.Buffer
			err := run([]string{"-connect", addr, "-name", name, "-capacity", "2", "-metrics",
				"-connect-retries", "400", "-retry-delay", "5ms", "-retry-max-delay", "25ms"}, &stdout, &stderr)
			exits <- exit{err, stdout.String(), stderr.String()}
		}()
	}

	sp, err := simspec.Parse([]byte(`{"case":"wf","seed":7,"loss":"L1","wf_network":"one-link","wf_storage":"submit","wf_compute":"direct","wf_apps":["epigenomics"],"wf_size_idx":[1],"wf_work_idx":[1],"wf_foot_idx":[1],"wf_workers":[2],"wf_reps":2}`))
	if err != nil {
		t.Fatal(err)
	}
	space, err := sp.Space()
	if err != nil {
		t.Fatal(err)
	}
	specBytes, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	calibrate := func(sim core.Simulator) *core.Result {
		t.Helper()
		res, err := (&core.Calibrator{Space: space, Simulator: sim, Algorithm: opt.Random{}, MaxEvaluations: 24, Workers: 4, Seed: 7}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := calibrate(local)

	fleet := cli.Fleet{Listen: addr, DistWorkers: 2}
	coord, err := fleet.Start("test", obs.NewRegistry(), nil, "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got := calibrate(coord.Evaluator(specBytes))
	fleet.Close()

	if len(got.History) != len(want.History) {
		t.Fatalf("fleet ran %d evaluations, local %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if got.History[i].Loss != want.History[i].Loss {
			t.Errorf("evaluation %d: fleet loss %v, local %v", i, got.History[i].Loss, want.History[i].Loss)
		}
	}
	for i := 0; i < 2; i++ {
		e := <-exits
		if e.err != nil {
			t.Errorf("worker returned %v, want nil\nstderr: %s", e.err, e.stderr)
		}
		if !strings.Contains(e.stderr, "coordinator closed the connection") {
			t.Errorf("worker stderr lacks the orderly-close line:\n%s", e.stderr)
		}
		if !strings.HasPrefix(e.stdout, "metrics:\n") {
			t.Errorf("-metrics printed no snapshot: %q", e.stdout)
		}
	}
}
