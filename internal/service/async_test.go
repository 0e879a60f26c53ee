package service_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/opt"
	"simcal/internal/service"
)

// TestAsyncBOJobResultHasOnlyRealLosses: an async-bo job's published
// result must contain only real simulator losses. Constant-liar
// fantasy values are surrogate-internal; every loss served by
// /v1/jobs/{id}/result re-evaluates to itself bitwise on the same
// deterministic simulator.
func TestAsyncBOJobResultHasOnlyRealLosses(t *testing.T) {
	cfg := toyConfig(time.Millisecond)
	svc, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := startHTTP(t, svc)

	req := service.JobRequest{
		Tenant:    "async",
		Algorithm: "async-bo",
		MaxEvals:  30,
		Seed:      17,
		Workers:   4,
		Spec:      json.RawMessage(`{"toy":1}`),
	}
	st, resp := submitHTTP(t, base, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit async-bo job: status %d", resp.StatusCode)
	}
	done := waitState(t, base, st.ID, service.StateDone)
	if done.Evaluations != int64(req.MaxEvals) {
		t.Errorf("job evaluations = %d, want %d", done.Evaluations, req.MaxEvals)
	}

	res := fetchResult(t, base, st.ID)
	if res.Algorithm != "async-bo" {
		t.Errorf("result algorithm = %q, want async-bo", res.Algorithm)
	}
	if len(res.History) != req.MaxEvals {
		t.Fatalf("result history has %d samples, want %d", len(res.History), req.MaxEvals)
	}
	sim := toySim{}
	for i, s := range res.History {
		real, err := sim.Run(context.Background(), s.Point)
		if err != nil {
			t.Fatal(err)
		}
		if s.Loss != real {
			t.Errorf("history[%d]: published loss %v, re-evaluation gives %v — an imputed value leaked into the result", i, s.Loss, real)
		}
	}
	if real, _ := sim.Run(context.Background(), res.Best.Point); res.Best.Loss != real {
		t.Errorf("best: published loss %v, re-evaluation gives %v", res.Best.Loss, real)
	}
}

// TestAsyncBOJobReplaysFromJournal: a finished async-bo job replays bit
// for bit from its <id>.journal.jsonl alone. The job runs on a 2-worker
// loopback fleet whose workers differ in speed, so it consumes
// completions out of submission order; a local run forcing the
// journal's order reproduces the published history.
func TestAsyncBOJobReplaysFromJournal(t *testing.T) {
	cfg := fleetConfig(t, time.Millisecond, 6*time.Millisecond)
	cfg.StateDir = t.TempDir()
	svc, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := startHTTP(t, svc)

	req := service.JobRequest{Tenant: "async", Algorithm: "async-bo", MaxEvals: 24, Seed: 17, Workers: 4, Spec: json.RawMessage(`{"toy":1}`)}
	st, resp := submitHTTP(t, base, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit async-bo job: status %d", resp.StatusCode)
	}
	waitState(t, base, st.ID, service.StateDone)
	published := fetchResult(t, base, st.ID)

	replay := opt.NewAsyncBO()
	cal := core.Calibrator{
		Space: toySpace(), Simulator: toySim{}, Algorithm: replay,
		MaxEvaluations: req.MaxEvals, Workers: req.Workers, Seed: req.Seed,
	}
	jr, err := core.ReadJournal(filepath.Join(cfg.StateDir, st.ID+".journal.jsonl"), &cal)
	if err != nil {
		t.Fatal(err)
	}
	if slices.IsSorted(jr.Order) {
		t.Fatalf("the job consumed in submission order %v: nothing to replay", jr.Order)
	}
	replay.Replay = jr.Order
	res, err := cal.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(res), fingerprint(published); got != want {
		t.Errorf("local replay diverges from the published job:\n got %.200s…\nwant %.200s…", got, want)
	}
	for i, s := range res.History {
		if !slices.EqualFunc(s.Unit, jr.History[i].Unit, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("history[%d]: replayed unit %v, journaled %v", i, s.Unit, jr.History[i].Unit)
		}
	}
}
