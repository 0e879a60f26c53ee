package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/obs"
	"simcal/internal/simspec"
)

// The constants in this file were recorded with the binaries of the
// commit before cmd/ was rebuilt on internal/cli (7f8c30e): they pin
// what the refactor must not move.

// parentFlags is simcal's flag set at that commit, name → default,
// minus four knobs nothing set, deleted with the code they selected: a
// consecutive-failure cutoff (it spent budget on +Inf samples it never
// ran, as many as timing and resume decided), async-bo's in-flight cap
// (its window is -workers), and the coordinator's requeue cap and
// degradation grace (both run at their defaults); and minus lease
// redelivery, deleted with the chaos faults that alone needed it
// (frames dropped or duplicated on a live connection); and minus the
// snapshot interval, deleted when the checkpoint became an evaluation
// journal that syncs at every consumption boundary.
var parentFlags = map[string]string{
	"alg": "BO-GP", "async-replay": "", "budget": "0s",
	"cache": "false", "case": "wf", "chaos-profile": "", "chaos-seed": "1", "checkpoint": "",
	"compute": "htcondor", "dist-workers": "1",
	"eval-retries": "0", "eval-timeout": "0s", "evals": "100", "jobs": "1",
	"listen": "", "loss": "L1", "metrics": "false", "network": "", "node": "complex",
	"out": "", "pprof": "", "print-spec": "false", "protocol": "fixed", "replay": "", "resume": "false",
	"seed": "1", "storage": "all", "trace": "", "workers": "0",
}

func TestFlagsMatchParent(t *testing.T) {
	got := map[string]string{}
	new(config).flagSet().VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if len(got) != 29 {
		t.Errorf("%d flags, want 29", len(got))
	}
	for name, def := range parentFlags {
		if g, ok := got[name]; !ok || g != def {
			t.Errorf("-%s: default %q (registered %v), parent had %q", name, g, ok, def)
		}
	}
	for name := range got {
		if _, ok := parentFlags[name]; !ok {
			t.Errorf("-%s is new: no binary may gain a flag", name)
		}
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

// simcal runs run in-process and returns its stdout.
func simcal(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("simcal %s: %v\nstderr: %s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

func TestPrintSpecMatchesParent(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-case wf",
			`{"case":"wf","seed":1,"loss":"L1","wf_network":"series","wf_storage":"all","wf_compute":"htcondor","wf_apps":["epigenomics"],"wf_size_idx":[1],"wf_work_idx":[1,3],"wf_foot_idx":[1,2],"wf_workers":[2],"wf_reps":3}`},
		{"-case mpi",
			`{"case":"mpi","seed":1,"loss":"L1","mpi_network":"backbone-links","mpi_node":"complex","mpi_protocol":"free","mpi_benchmarks":["PingPong","PingPing","BiRandom"],"mpi_nodes":[8],"mpi_msg_sizes":[1024,8192,65536,524288,4194304],"mpi_rounds":2,"mpi_reps":3,"eval_rounds":2}`},
		{"-case wf -network one-link -storage submit -compute direct -loss L3 -seed 7",
			`{"case":"wf","seed":7,"loss":"L3","wf_network":"one-link","wf_storage":"submit","wf_compute":"direct","wf_apps":["epigenomics"],"wf_size_idx":[1],"wf_work_idx":[1,3],"wf_foot_idx":[1,2],"wf_workers":[2],"wf_reps":3}`},
		{"-case mpi -network tree4 -node simple -protocol free -loss L2 -seed 11",
			`{"case":"mpi","seed":11,"loss":"L2","mpi_network":"tree4","mpi_node":"simple","mpi_protocol":"free","mpi_benchmarks":["PingPong","PingPing","BiRandom"],"mpi_nodes":[8],"mpi_msg_sizes":[1024,8192,65536,524288,4194304],"mpi_rounds":2,"mpi_reps":3,"eval_rounds":2}`},
	} {
		if got := simcal(t, append(strings.Fields(tc.args), "-print-spec")...); got != tc.want+"\n" {
			t.Errorf("simcal %s -print-spec:\n got %s\nwant %s", tc.args, got, tc.want)
		}
	}
}

// normalized reads a -out result file and re-encodes it with the
// wall-clock fields zeroed — everything the search computed, nothing
// the host's speed decided.
func normalized(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := core.ReadResult(f)
	if err != nil {
		t.Fatal(err)
	}
	res.Elapsed, res.Best.Elapsed = 0, 0
	for i := range res.History {
		res.History[i].Elapsed = 0
	}
	var b bytes.Buffer
	if err := res.WriteJSON(&b, true); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// freeAddr returns a localhost address nothing is listening on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startWorkers runs n workers against addr the way simcal-worker does
// (dist.Worker.RunSession over TCP, redialling until the coordinator
// has bound) and returns a func that waits for them: each must have
// seen an orderly close.
func startWorkers(t *testing.T, addr string, n int) (wait func()) {
	t.Helper()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Capacity: 2,
			Factory: simspec.BuildSimulator, Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			errs <- w.RunSession(context.Background(), dist.TCP{}, addr, dist.SessionConfig{
				MaxDialAttempts: 400, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond,
				Resume: true, // the simcal-worker default: a reset would make it redial
			})
		}()
	}
	return func() {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Errorf("worker: %v, want nil (an orderly close)", err)
			}
		}
	}
}

// parentResults are sha256 sums of the normalized -out file of
// `simcal -case C -alg RAND -evals 40 -seed 7`, plus the flags after C in
// the key.
var parentResults = map[string]string{
	"wf":  "46b325f4aefbe841b1b12b2f4846279691c554fb14c37a87ae2c98ae675c15f0",
	"mpi": "76b1f483f49fe8974071b95a74ef0c685b174ac26ac363d65adcb93394f5e680",

	// Recorded at a906003, the commit before the restart rule moved into
	// experiments.CalibrateBest.
	"wf -jobs 3": "6757009d1835eb0bba46be074d7a227b769d0cf5e3a50445dd59b19b09c73c0a",
}

func TestSerialEqualsFleetEqualsParent(t *testing.T) {
	for _, study := range []string{"wf", "mpi"} {
		t.Run(study, func(t *testing.T) {
			dir := t.TempDir()
			serial, fleet := filepath.Join(dir, "serial.json"), filepath.Join(dir, "fleet.json")
			base := []string{"-case", study, "-alg", "RAND", "-evals", "40", "-seed", "7"}
			simcal(t, append(base, "-out", serial)...)

			addr := freeAddr(t)
			wait := startWorkers(t, addr, 2)
			simcal(t, append(base, "-listen", addr, "-dist-workers", "2", "-out", fleet)...)
			wait()

			want := normalized(t, serial)
			if got := normalized(t, fleet); !bytes.Equal(got, want) {
				t.Errorf("fleet result differs from serial:\n got %s\nwant %s", got, want)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(want)); sum != parentResults[study] {
				t.Errorf("serial result sha256 %s, parent recorded %s", sum, parentResults[study])
			}
		})
	}
}

// -jobs 3 runs three restarts concurrently and keeps the lowest loss.
func TestJobsMatchParent(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	simcal(t, "-case", "wf", "-alg", "RAND", "-evals", "40", "-seed", "7", "-jobs", "3", "-out", out)
	if sum := fmt.Sprintf("%x", sha256.Sum256(normalized(t, out))); sum != parentResults["wf -jobs 3"] {
		t.Errorf("-jobs 3 result sha256 %s, parent recorded %s", sum, parentResults["wf -jobs 3"])
	}
}

// A run stopped after its budget ran out mid-search leaves a journal;
// resuming it must land on the uninterrupted run's result.
func TestCheckpointResumeEqualsUninterrupted(t *testing.T) {
	dir := t.TempDir()
	ref, resumed, ck := filepath.Join(dir, "ref.json"), filepath.Join(dir, "resumed.json"), filepath.Join(dir, "ck.jsonl")
	base := []string{"-case", "wf", "-alg", "RAND", "-seed", "7"}
	simcal(t, append(base, "-evals", "40", "-out", ref)...)

	simcal(t, append(base, "-evals", "24", "-checkpoint", ck)...)
	snap, err := core.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Samples) == 0 || len(snap.Samples) >= 40 {
		t.Fatalf("journal holds %d evaluations, want a mid-run cut", len(snap.Samples))
	}
	out := simcal(t, append(base, "-evals", "40", "-checkpoint", ck, "-resume", "-out", resumed)...)
	if !strings.Contains(out, "resuming from "+ck) {
		t.Errorf("resumed run did not report the checkpoint:\n%s", out)
	}
	want := normalized(t, ref)
	if got := normalized(t, resumed); !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from uninterrupted:\n got %s\nwant %s", got, want)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(want)); sum != parentResults["wf"] {
		t.Errorf("uninterrupted result sha256 %s, parent recorded %s", sum, parentResults["wf"])
	}
}

// -resume on a snapshot checkpoint an earlier version wrote fails with
// an error that names the format, and leaves the file alone.
func TestResumeRefusesSnapshotCheckpoint(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	old := `{"kind":"simcal-calibration-checkpoint","algorithm":"RAND","seed":7,"space":["x"],"evaluations":0,"elapsedNanos":0,"samples":[]}` + "\n"
	if err := os.WriteFile(ck, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err := run([]string{"-case", "wf", "-alg", "RAND", "-evals", "4", "-checkpoint", ck, "-resume"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "snapshot checkpoint") {
		t.Errorf("simcal -resume on a snapshot: err = %v, want one naming the snapshot format", err)
	}
	if got, _ := os.ReadFile(ck); string(got) != old {
		t.Error("the refused snapshot was modified")
	}
}

func TestArgumentErrors(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-resume", "-resume needs -checkpoint"},
		{"-checkpoint ck.json -jobs 2", "cannot be combined with -jobs 2"},
		{"-async-replay t.jsonl", "requires -alg async-bo"},
		{"-case bogus", `unknown case study "bogus"`},
		{"-alg bogus", "bogus"},
		{"-replay /nonexistent/trace.jsonl", "no such file"},
		{"-listen 127.0.0.1:0 -chaos-profile bogus=1 -evals 1", "-chaos-profile"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(strings.Fields(tc.args), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("simcal %s: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// -trace and -replay round-trip through the shared Obs lifecycle: the
// trace is flushed and closed by the time run returns.
func TestTraceThenReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	out := simcal(t, "-case", "wf", "-alg", "RAND", "-evals", "12", "-seed", "3", "-trace", trace, "-metrics")
	if !strings.Contains(out, "metrics:\n") || !strings.Contains(out, "cal.evaluations") {
		t.Errorf("-metrics printed no snapshot:\n%s", out)
	}
	if out := simcal(t, "-replay", trace); !strings.Contains(out, "trace: RAND seed=3") {
		t.Errorf("replay of a just-written trace:\n%s", out)
	}
}
