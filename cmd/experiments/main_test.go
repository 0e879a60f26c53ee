package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"simcal/internal/dist"
	"simcal/internal/experiments"
	"simcal/internal/obs"
	"simcal/internal/simspec"
)

// parentFlags is the experiments flag set at the commit before cmd/ was
// rebuilt on internal/cli (7f8c30e), name → default.
var parentFlags = map[string]string{
	"budget": "0s", "cache": "false", "checkpoint": "", "dist-workers": "1", "eval-retries": "0",
	"eval-timeout": "0s", "evals": "0", "full": "false", "jobs": "1", "json": "", "listen": "",
	"metrics": "false", "pprof": "", "run": "all", "seed": "0", "trace": "", "workers": "0",
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

// Every artifact id appears in README.md and in DESIGN.md's §4
// per-experiment index: the docs are checked against the table, not
// kept beside it.
func TestDocsMentionEveryArtifact(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, _ := bytes.Cut(design, []byte("## 4. Per-experiment index"))
	index, _, _ = bytes.Cut(index, []byte("\n## "))
	for _, a := range experiments.Artifacts {
		if !bytes.Contains(readme, []byte("`"+a.ID+"`")) {
			t.Errorf("README.md does not mention `%s`", a.ID)
		}
		for _, target := range []string{"-run " + a.ID + "`", "BenchmarkArtifact/" + a.ID + "`"} {
			if !bytes.Contains(index, []byte(target)) {
				t.Errorf("DESIGN.md §4 does not mention %s", target)
			}
		}
	}
}

// baseline2 printed its per-benchmark rows in map order.
func TestBaseline2TextIsReproducible(t *testing.T) {
	var first, second, stderr bytes.Buffer
	for _, out := range []*bytes.Buffer{&first, &second} {
		if err := run([]string{"-run", "baseline2", "-evals", "8"}, out, &stderr); err != nil {
			t.Fatalf("%v\n%s", err, stderr.String())
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) || bytes.Count(first.Bytes(), []byte("%\n")) != 5 {
		t.Errorf("two runs of baseline2 printed\n%s\nand\n%s", first.String(), second.String())
	}
}

// figure1 reads the losses of a -json figure1 artifact (its elapsed
// fields are wall clock).
func figure1(t *testing.T, dir string) []float64 {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "figure1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.ConvergenceResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, len(res.Points))
	for i, p := range res.Points {
		losses[i] = p.Loss
	}
	return losses
}

// A -listen grid with a failing artifact: the good artifact matches the
// serial run, the failure still makes run return an error — and by then
// the coordinator has closed in order, so the workers saw an orderly
// end (nil from RunSession) rather than the reset an os.Exit past the
// deferred Close used to give them.
func TestFleetRunClosesCleanlyPastAFailedArtifact(t *testing.T) {
	serialDir, fleetDir := t.TempDir(), t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "figure1", "-evals", "8", "-json", serialDir}, &stdout, &stderr); err != nil {
		t.Fatalf("serial: %v\n%s", err, stderr.String())
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	workers := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Capacity: 2,
			Factory: simspec.BuildSimulator, Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			workers <- w.RunSession(context.Background(), dist.TCP{}, addr, dist.SessionConfig{
				MaxDialAttempts: 400, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond,
				Resume: true, // the simcal-worker default: a reset would make it redial
			})
		}()
	}

	stdout.Reset()
	stderr.Reset()
	err = run([]string{"-run", "figure1,bogus", "-evals", "8", "-json", fleetDir,
		"-listen", addr, "-dist-workers", "2"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "1 artifact(s) failed: bogus") {
		t.Fatalf("run = %v, want the failed artifact named\n%s", err, stderr.String())
	}
	for i := 0; i < 2; i++ {
		if werr := <-workers; werr != nil {
			t.Errorf("worker: %v, want nil (an orderly close)", werr)
		}
	}
	if got, want := figure1(t, fleetDir), figure1(t, serialDir); !reflect.DeepEqual(got, want) || len(want) != 8 {
		t.Errorf("figure1 over the fleet %v, serial %v", got, want)
	}
}
