package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/opt"
	"simcal/internal/service"
)

// TestSpecFingerprintSurvivesRestart: a spec posted pretty-printed (as
// `jq -n` writes it) has the compact spec's fingerprint — and so the
// same cache key — while its server is up and after a restart.
func TestSpecFingerprintSurvivesRestart(t *testing.T) {
	cfg := toyConfig(0)
	cfg.StateDir = t.TempDir()
	svc, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := startHTTP(t, svc)
	body := "{\"tenant\":\"t\",\"algorithm\":\"RAND\",\"max_evals\":3,\"seed\":1,\"spec\":{\n  \"toy\": 3\n}}"
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	live := waitState(t, base, st.ID, service.StateDone).SpecFingerprint
	svc.Close()

	svc2, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	reloaded, _ := svc2.Status(st.ID)
	want := service.Fingerprint(json.RawMessage(`{"toy":3}`))
	if live != want || reloaded.SpecFingerprint != want {
		t.Errorf("spec fingerprint %s live, %s after a restart; want the compact spec's %s", live, reloaded.SpecFingerprint, want)
	}
}

// TestEndedJobsSurviveRestart: a job its backend fails, one canceled
// while pending and one canceled mid-run keep their state, error,
// times (started included; the pending one has none), evaluations and
// best loss across a restart, and none runs again. The state dir holds
// one file per job: its journal.
func TestEndedJobsSurviveRestart(t *testing.T) {
	var builds atomic.Int64
	cfg := toyConfig(0)
	cfg.MaxRunning = 1
	cfg.StateDir = t.TempDir()
	cfg.Backend = func(_ string, spec json.RawMessage) (core.Simulator, error) {
		builds.Add(1)
		if string(spec) == `{"toy":"broken"}` {
			return nil, errors.New("toy backend: no such simulator")
		}
		return toySim{delay: 2 * time.Millisecond}, nil
	}
	svc, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := startHTTP(t, svc)
	submit := func(seed int64, spec string) string {
		j, err := svc.Submit(service.JobRequest{Tenant: "t", Algorithm: "RAND", MaxEvals: 400, Seed: seed, Workers: 2, Spec: json.RawMessage(spec)})
		if err != nil {
			t.Fatal(err)
		}
		return j.ID
	}
	running := submit(1, `{"toy":1}`)
	pending := submit(2, `{"toy":1}`) // behind running: MaxRunning is 1
	svc.Cancel(pending)
	waitEvaluations(t, base, running, 6)
	svc.Cancel(running)
	waitState(t, base, running, service.StateCanceled)
	broken := submit(3, `{"toy":"broken"}`)
	waitState(t, base, broken, service.StateFailed)
	ids := []string{running, pending, broken}
	before := make([]service.JobStatus, len(ids))
	for i, id := range ids {
		before[i], _ = svc.Status(id)
	}
	svc.Close()
	if before[0].Evaluations == 0 || before[0].BestLoss == nil || before[0].StartedUnixNS == 0 ||
		before[1].State != service.StateCanceled || before[1].StartedUnixNS != 0 || before[2].Error == "" || before[2].StartedUnixNS == 0 {
		t.Fatalf("the jobs did not end as the test needs: %+v", before)
	}

	builds.Store(0)
	svc2, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if after, _ := svc2.Status(id); !reflect.DeepEqual(after, before[i]) {
			t.Errorf("job %s after a restart:\n got %+v\nwant %+v", id, after, before[i])
		}
	}
	svc2.Close() // returns once every job it re-queued has called its backend
	if n := builds.Load(); n != 0 {
		t.Errorf("a restarted server ran %d ended jobs again", n)
	}

	entries, err := os.ReadDir(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	for _, id := range ids {
		want = append(want, id+".journal.jsonl")
	}
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("state dir holds %v, want one journal per job %v", names, want)
	}
}

// TestEndLineWithoutStartLoads: an end line written before the start
// time was recorded in it still loads, as a job with no start time and
// everything else it had.
func TestEndLineWithoutStartLoads(t *testing.T) {
	cfg := toyConfig(0)
	cfg.StateDir = t.TempDir()
	svc, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := startHTTP(t, svc)
	j, err := svc.Submit(service.JobRequest{Tenant: "t", Algorithm: "RAND", MaxEvals: 5, Seed: 1, Spec: json.RawMessage(`{"toy":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, base, j.ID, service.StateDone)
	svc.Close()
	if want.StartedUnixNS == 0 {
		t.Fatalf("a done job has no start time: %+v", want)
	}

	path := filepath.Join(cfg.StateDir, j.ID+".journal.jsonl")
	held, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	field := `"started_unix_ns":` + strconv.FormatInt(want.StartedUnixNS, 10) + `,`
	if strings.Count(string(held), field) != 1 {
		t.Fatalf("the journal records the start once as %s:\n%s", field, held)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(held), field, "", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	svc2, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	want.StartedUnixNS = 0
	if got, _ := svc2.Status(j.ID); !reflect.DeepEqual(got, want) {
		t.Errorf("job %s reloaded from an end line without a start:\n got %+v\nwant %+v", j.ID, got, want)
	}
}

// TestStateDirOfEarlierVersionRefused: a state dir an earlier version
// wrote — a job record, or a journal with no job header — fails
// NewServer with an error naming the file, and nothing in it changes.
func TestStateDirOfEarlierVersionRefused(t *testing.T) {
	// plainJournal writes the journal a calibration writes alone: what an
	// earlier version kept beside each job record.
	plainJournal := func(dir string) string {
		path := filepath.Join(dir, "j-000001.journal.jsonl")
		alg, _ := opt.ByName("RAND")
		_, err := (&core.Calibrator{
			Space: toySpace(), Simulator: toySim{}, Algorithm: alg,
			MaxEvaluations: 4, Seed: 7, Checkpoint: path,
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	for name, write := range map[string]func(dir string) string{
		"job record": func(dir string) string {
			plainJournal(dir)
			path := filepath.Join(dir, "j-000001.job.json")
			rec := `{"kind":"simcald-job","id":"j-000001","tenant":"t","state":"done","request":{"tenant":"t","spec":{"toy":1},"algorithm":"RAND","max_evals":4,"seed":7},"submitted_unix_ns":1,"finished_unix_ns":2}` + "\n"
			if err := os.WriteFile(path, []byte(rec), 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		},
		"journal without a job header": plainJournal,
	} {
		dir := t.TempDir()
		path := write(dir)
		held, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg := toyConfig(0)
		cfg.StateDir = dir
		if svc, err := service.NewServer(cfg); err == nil || !strings.Contains(err.Error(), path) {
			if svc != nil {
				svc.Close()
			}
			t.Errorf("%s: NewServer err = %v, want one naming %s", name, err, path)
		}
		if now, _ := os.ReadFile(path); string(now) != string(held) {
			t.Errorf("%s: the refused file changed", name)
		}
	}
}

// TestSubmitWithoutJournalFails: a job whose journal cannot be created
// is refused with 500 — the server's failure — and never exists.
func TestSubmitWithoutJournalFails(t *testing.T) {
	cfg := toyConfig(0)
	cfg.StateDir = t.TempDir()
	svc, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// A file where the state dir was: nothing can be created in it.
	if err := os.RemoveAll(cfg.StateDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.StateDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	req := service.JobRequest{Tenant: "t", Algorithm: "RAND", MaxEvals: 3, Seed: 1, Spec: json.RawMessage(`{}`)}
	if _, resp := submitHTTP(t, startHTTP(t, svc), req); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("submit without a journal: status %d, want 500", resp.StatusCode)
	}
	if sum := svc.Summary(); len(sum.Jobs) != 0 {
		t.Errorf("a job without a journal exists: %+v", sum.Jobs)
	}
}
