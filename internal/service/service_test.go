package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/service"
)

// The toy problem: a deterministic quadratic bowl over a 2-parameter
// space, optionally slowed per evaluation so tests can catch jobs
// mid-run. Determinism is what the tentpole tests lean on — a job's
// result must be bitwise identical to a serial run of the same
// calibration, no matter what the rest of the server is doing.

func toySpace() core.Space {
	return core.Space{
		{Name: "x", Kind: core.Continuous, Min: -1, Max: 1},
		{Name: "y", Kind: core.Continuous, Min: -1, Max: 1},
	}
}

type toySim struct{ delay time.Duration }

func (s toySim) Run(ctx context.Context, p core.Point) (float64, error) {
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	dx, dy := p["x"]-0.3, p["y"]+0.2
	return dx*dx + dy*dy, nil
}

// toyConfig builds a service.Config evaluating the toy problem
// locally; tests override the backend for distributed runs.
func toyConfig(delay time.Duration) service.Config {
	return service.Config{
		Backend: func(_ string, _ json.RawMessage) (core.Simulator, error) {
			return toySim{delay: delay}, nil
		},
		Resolve: func(json.RawMessage) (core.Space, error) { return toySpace(), nil },
	}
}

// serialResult runs the same calibration a job describes, alone and
// locally — the reference every service-side result is diffed against.
func serialResult(t *testing.T, req service.JobRequest, sim core.Simulator) *core.Result {
	t.Helper()
	alg, err := opt.ByName(req.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&core.Calibrator{
		Space: toySpace(), Simulator: sim, Algorithm: alg,
		MaxEvaluations: req.MaxEvals, Workers: req.Workers, Seed: req.Seed,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fingerprint renders a result's full trajectory with exact float bits
// and no wall-clock fields: two results with equal fingerprints are
// bitwise-identical calibrations.
func fingerprint(res *core.Result) string {
	var b strings.Builder
	point := func(p core.Point) {
		names := make([]string, 0, len(p))
		for n := range p {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%016x", n, math.Float64bits(p[n]))
		}
	}
	fmt.Fprintf(&b, "alg=%s evals=%d best=%016x", res.Algorithm, res.Evaluations, math.Float64bits(res.Best.Loss))
	point(res.Best.Point)
	for i, s := range res.History {
		fmt.Fprintf(&b, "\n%d %016x", i, math.Float64bits(s.Loss))
		point(s.Point)
	}
	return b.String()
}

// startHTTP serves the job API the way simcald does (the service
// mounted on a mux) and returns a test client base URL.
func startHTTP(t *testing.T, svc *service.Server) string {
	t.Helper()
	mux := http.NewServeMux()
	svc.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

func submitHTTP(t *testing.T, base string, req service.JobRequest) (service.JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

// followEvents reads a job's event stream (?follow=1 keeps it open until
// the job is terminal) and returns at the first event stop accepts, or
// at the end of the stream. It waits on the job's own event channel:
// nothing polls.
func followEvents(t *testing.T, base, id string, stop func(service.Event) bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev service.Event
		if err := dec.Decode(&ev); err != nil {
			return // end of stream (or the 30 s guard): the caller checks the state
		}
		if stop(ev) {
			return
		}
	}
}

// waitEvaluations returns once the job has reported at least n
// evaluations on its event stream.
func waitEvaluations(t *testing.T, base, id string, n int64) {
	t.Helper()
	reached := false
	followEvents(t, base, id, func(ev service.Event) bool {
		reached = ev.Evaluations >= n
		return reached
	})
	if !reached {
		t.Fatalf("job %s ended before reporting %d evaluations", id, n)
	}
}

// waitState follows the job to its terminal state, which must be want.
func waitState(t *testing.T, base, id string, want service.State) service.JobStatus {
	t.Helper()
	followEvents(t, base, id, func(service.Event) bool { return false })
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != want {
		t.Fatalf("job %s reached %q (err %q) waiting for %q", id, st.State, st.Error, want)
	}
	return st
}

func fetchResult(t *testing.T, base, id string) *core.Result {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", resp.StatusCode)
	}
	res, err := core.ReadResult(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTwoTenantsConcurrent is the tentpole contract over loopback
// HTTP: two tenants submit concurrently, both jobs run on one server,
// and each result is bitwise identical to its serial reference run.
func TestTwoTenantsConcurrent(t *testing.T) {
	cfg := toyConfig(0)
	cfg.MaxRunning = 2
	cfg.Registry = obs.NewRegistry()
	svc, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := startHTTP(t, svc)

	reqs := []service.JobRequest{
		{Tenant: "alice", Algorithm: "RAND", MaxEvals: 60, Seed: 3, Workers: 2, Spec: json.RawMessage(`{"toy":1}`)},
		{Tenant: "bob", Algorithm: "BO-GP", MaxEvals: 25, Seed: 9, Workers: 2, Spec: json.RawMessage(`{"toy":2}`)},
	}
	ids := make([]string, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req service.JobRequest) {
			defer wg.Done()
			st, resp := submitHTTP(t, base, req)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i, req)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, req := range reqs {
		st := waitState(t, base, ids[i], service.StateDone)
		if st.Tenant != req.Tenant {
			t.Errorf("job %s tenant = %q, want %q", ids[i], st.Tenant, req.Tenant)
		}
		if st.Evaluations != int64(req.MaxEvals) {
			t.Errorf("job %s evaluations = %d, want %d", ids[i], st.Evaluations, req.MaxEvals)
		}
		got := fingerprint(fetchResult(t, base, ids[i]))
		want := fingerprint(serialResult(t, req, toySim{}))
		if got != want {
			t.Errorf("job %s result diverges from serial run:\n got %.80s…\nwant %.80s…", ids[i], got, want)
		}
	}

	// The events stream replays the lifecycle and ends terminal.
	resp, err := http.Get(base + "/v1/jobs/" + ids[0] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	joined := strings.Join(types, ",")
	for _, want := range []string{"submitted", "started", "done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("event stream %v lacks %q", types, want)
		}
	}

	// And the summary (the /statusz jobs section) accounts for both.
	sum := svc.Summary()
	if sum.Done != 2 || sum.Tenants != 2 {
		t.Errorf("summary done=%d tenants=%d, want 2/2", sum.Done, sum.Tenants)
	}
}

// TestTenantQuota: a tenant at its open-job quota gets 429; other
// tenants are unaffected.
func TestTenantQuota(t *testing.T) {
	cfg := toyConfig(5 * time.Millisecond)
	cfg.MaxRunning = 1
	cfg.TenantQuota = 2
	svc, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := startHTTP(t, svc)

	req := service.JobRequest{Tenant: "greedy", Algorithm: "RAND", MaxEvals: 200, Seed: 1, Spec: json.RawMessage(`{}`)}
	var ids []string
	for i := 0; i < 2; i++ {
		st, resp := submitHTTP(t, base, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	if _, resp := submitHTTP(t, base, req); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	// A different tenant still gets in.
	other := req
	other.Tenant = "patient"
	other.MaxEvals = 5
	if _, resp := submitHTTP(t, base, other); resp.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant: status %d, want 202", resp.StatusCode)
	}
	// Canceling frees quota.
	hc := &http.Client{}
	for _, id := range ids {
		dreq, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
		resp, err := hc.Do(dreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if _, resp := submitHTTP(t, base, req); resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-cancel submit: status %d, want 202", resp.StatusCode)
	}
}

// TestCancelIsolationOnSharedFleet is the ISSUE's acceptance test: two
// jobs multiplexed onto one loopback coordinator fleet (2 workers);
// one is canceled mid-run; the survivor's result must be bitwise
// identical to a serial run — a neighbor's cancellation purges only
// its own leases.
func TestCancelIsolationOnSharedFleet(t *testing.T) {
	lb := dist.NewLoopback()
	l, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	coord := dist.NewCoordinator(dist.CoordinatorConfig{
		Name:     "svc-test",
		Registry: obs.NewRegistry(),
	})
	go coord.Serve(l)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Name:     fmt.Sprintf("w%d", i),
			Capacity: 2,
			Factory: func([]byte) (core.Simulator, error) {
				return toySim{delay: time.Millisecond}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := lb.Dial("")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx, conn)
		}()
	}
	defer func() {
		coord.Close()
		l.Close()
		cancel()
		wg.Wait()
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := coord.WaitForWorkers(wctx, 2); err != nil {
		t.Fatal(err)
	}

	cfg := service.Config{
		Backend: func(job string, spec json.RawMessage) (core.Simulator, error) {
			return coord.JobEvaluator(job, spec), nil
		},
		CancelJob:  coord.CancelJob,
		Resolve:    func(json.RawMessage) (core.Space, error) { return toySpace(), nil },
		MaxRunning: 2,
	}
	svc, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := startHTTP(t, svc)

	keep := service.JobRequest{Tenant: "keep", Algorithm: "RAND", MaxEvals: 80, Seed: 3, Workers: 2, Spec: json.RawMessage(`{"toy":1}`)}
	kst, resp := submitHTTP(t, base, keep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit keep: status %d", resp.StatusCode)
	}
	victim := service.JobRequest{Tenant: "victim", Algorithm: "RAND", MaxEvals: 500, Seed: 11, Workers: 2, Spec: json.RawMessage(`{"toy":2}`)}
	vst, resp := submitHTTP(t, base, victim)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit victim: status %d", resp.StatusCode)
	}

	// Cancel the victim once it is demonstrably mid-run.
	waitEvaluations(t, base, vst.ID, 4)
	dreq, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+vst.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, base, vst.ID, service.StateCanceled)

	waitState(t, base, kst.ID, service.StateDone)
	got := fingerprint(fetchResult(t, base, kst.ID))
	want := fingerprint(serialResult(t, keep, toySim{}))
	if got != want {
		t.Errorf("survivor's result diverges from serial run after neighbor cancel:\n got %.120s…\nwant %.120s…", got, want)
	}
	if resp, err := http.Get(base + "/v1/jobs/" + vst.ID + "/result"); err == nil {
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("canceled job's result: status %d, want 409", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestRestartResume: a server killed mid-job journals it as resumable;
// a new server over the same state dir resumes from the checkpoint and
// completes the exact calibration the dead server started.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	mk := func() *service.Server {
		cfg := toyConfig(3 * time.Millisecond)
		cfg.MaxRunning = 1
		cfg.StateDir = dir
		cfg.CheckpointEvery = 5
		svc, err := service.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := mk()
	req := service.JobRequest{Tenant: "t", Algorithm: "RAND", MaxEvals: 40, Seed: 7, Workers: 2, Spec: json.RawMessage(`{"toy":9}`)}
	j, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitEvaluations(t, startHTTP(t, svc), j.ID, 10)
	svc.Close() // journals the job as pending, checkpoint on disk

	svc2 := mk()
	defer svc2.Close()
	base := startHTTP(t, svc2)
	st := waitState(t, base, j.ID, service.StateDone)
	if st.Evaluations != int64(req.MaxEvals) {
		t.Errorf("resumed job evaluations = %d, want %d", st.Evaluations, req.MaxEvals)
	}
	got := fingerprint(fetchResult(t, base, j.ID))
	want := fingerprint(serialResult(t, req, toySim{}))
	if got != want {
		t.Errorf("resumed result diverges from uninterrupted serial run:\n got %.120s…\nwant %.120s…", got, want)
	}

	// A third server restart serves the terminal job straight from the
	// durable record and result file.
	svc2.Close()
	svc3 := mk()
	defer svc3.Close()
	base3 := startHTTP(t, svc3)
	st3 := waitState(t, base3, j.ID, service.StateDone)
	if st3.Evaluations != int64(req.MaxEvals) {
		t.Errorf("reloaded terminal job evaluations = %d, want %d", st3.Evaluations, req.MaxEvals)
	}
	if fp := fingerprint(fetchResult(t, base3, j.ID)); fp != want {
		t.Error("result served from disk after restart differs from the original")
	}
}

// failingSim is the toy problem with a hole in it: every evaluation in
// the x < 0 half fails, which the calibration records as a +Inf loss.
type failingSim struct{}

func (failingSim) Run(ctx context.Context, p core.Point) (float64, error) {
	if p["x"] < 0 {
		return 0, errors.New("toy simulator: x < 0 is out of its envelope")
	}
	return toySim{}.Run(ctx, p)
}

// TestResultWithFailedEvaluationsIsServed: a job whose history holds
// +Inf losses still has a result — from the endpoint while the server
// that ran it is up, and from the durable file after a restart — equal
// to the serial run's.
func TestResultWithFailedEvaluationsIsServed(t *testing.T) {
	dir := t.TempDir()
	mk := func() *service.Server {
		cfg := toyConfig(0)
		cfg.Backend = func(string, json.RawMessage) (core.Simulator, error) { return failingSim{}, nil }
		cfg.StateDir = dir
		svc, err := service.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := mk()
	base := startHTTP(t, svc)
	req := service.JobRequest{Tenant: "t", Algorithm: "RAND", MaxEvals: 30, Seed: 11, Workers: 2, Spec: json.RawMessage(`{"toy":5}`)}
	st, resp := submitHTTP(t, base, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitState(t, base, st.ID, service.StateDone)
	res := fetchResult(t, base, st.ID)
	failed := 0
	for _, s := range res.History {
		if math.IsInf(s.Loss, 1) {
			failed++
		}
	}
	if failed == 0 || failed == len(res.History) {
		t.Fatalf("%d of %d evaluations failed; the test needs some of each", failed, len(res.History))
	}
	want := fingerprint(serialResult(t, req, failingSim{}))
	if got := fingerprint(res); got != want {
		t.Errorf("served result diverges from the serial run:\n got %.120s…\nwant %.120s…", got, want)
	}
	svc.Close()

	svc2 := mk()
	defer svc2.Close()
	if got := fingerprint(fetchResult(t, startHTTP(t, svc2), st.ID)); got != want {
		t.Error("the durable result of a job with failed evaluations differs from the one it served live")
	}
}

// TestSubmitValidation: malformed requests are rejected before they
// consume a job slot.
func TestSubmitValidation(t *testing.T) {
	svc, err := service.NewServer(toyConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := startHTTP(t, svc)

	cases := []service.JobRequest{
		{Algorithm: "RAND", Spec: json.RawMessage(`{}`)},                                               // no budget
		{Algorithm: "NO-SUCH", MaxEvals: 5, Spec: json.RawMessage(`{}`)},                               // unknown algorithm
		{Algorithm: "RAND", MaxEvals: -1, BudgetS: 1, Spec: json.RawMessage(`{}`)},                     // negative
		{Algorithm: "RAND", MaxEvals: 5, Tenant: strings.Repeat("x", 65), Spec: json.RawMessage(`{}`)}, // tenant too long
	}
	for i, req := range cases {
		if _, resp := submitHTTP(t, base, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if resp, err := http.Get(base + "/v1/jobs/nope"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}
}
