package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/opt"
	"simcal/internal/service"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

const (
	svcJobs      = 12
	svcJobEvals  = 300
	svcSeedCount = svcJobs / 2
)

// svcInstance is the simcald-shaped deployment: a job server on a
// coordinator backend with a shared cache and a StateDir, behind the
// HTTP API, on a loopback fleet of 2 workers.
type svcInstance struct {
	spec   json.RawMessage
	sp     core.Space
	ds     groundtruth.WFOptions
	seed   int64
	tmpDir string
	tr     *tracer
	fleet  *fleet
}

// svcRep is what one svc-wf-jobs repetition measured beyond the
// results. Per-job slices are in submission order.
type svcRep struct {
	jobs        []service.JobStatus
	memo        []bool // the job's spec+seed had finished before it started
	submitMS    []float64
	fetchMS     []float64
	cache       cache.Stats
	stateBytes  int64
	turnaroundS []float64
}

func setupSvcWFJobs(a setupArgs) (instance, error) {
	v := wfsim.HighestDetail
	// simcal's default workflow dataset.
	ds := groundtruth.WFOptions{
		Apps:    []wfgen.App{wfgen.Epigenomics},
		SizeIdx: []int{1}, WorkIdx: []int{1, 3}, FootIdx: []int{1, 2},
		Workers: []int{2}, Reps: 3, Seed: a.seed,
	}
	spec, err := simspec.ForWF(v, loss.WFL1, ds, false).Canonical()
	if err != nil {
		return nil, err
	}
	fl, err := startFleet(a.tr.wrapTransport(dist.NewLoopback()), "", 2, 1, a.tr.wrapFactory(simspec.BuildSimulator, v.Space()))
	if err != nil {
		return nil, err
	}
	return &svcInstance{spec: spec, sp: v.Space(), ds: ds, seed: a.seed, tmpDir: a.tmpDir, tr: a.tr, fleet: fl}, nil
}

func (s *svcInstance) space() core.Space { return s.sp }

func (s *svcInstance) coordinator() *dist.Coordinator { return s.fleet.coord }

// effectiveWorkers: two running jobs, each as wide as the fleet's
// capacity hint.
func (s *svcInstance) effectiveWorkers() int { return 2 * s.fleet.coord.Capacity() }

func (s *svcInstance) close() { s.fleet.stop() }

// jobSeeds returns the calibration seeds of the 12 jobs in submission
// order, and for each whether it belongs to tenant b. Both tenants
// submit the same six seeds; b starts three seeds in, so that with two
// run slots and round-robin dispatch the first six jobs to run are all
// distinct (fresh) and the last six each repeat a finished one
// (memoized) — whatever the timing, since a repeat is three jobs behind
// its original.
func (s *svcInstance) jobSeeds() (seeds []int64, tenantB []bool) {
	base := (s.seed - 1) * svcSeedCount
	for k := 0; k < svcSeedCount; k++ {
		seeds = append(seeds, base+int64(k)+1, base+int64((k+svcSeedCount/2)%svcSeedCount)+1)
		tenantB = append(tenantB, false, true)
	}
	return seeds, tenantB
}

func (s *svcInstance) rep(ctx context.Context, evals int) (*repResult, error) {
	jobEvals := evals / svcJobs
	stateDir, err := os.MkdirTemp(s.tmpDir, "svc-state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	memo := cache.New(nil)
	srv, err := service.NewServer(service.Config{
		Backend: func(job string, spec json.RawMessage) (core.Simulator, error) {
			return s.tr.wrapRemote(s.fleet.coord.JobEvaluator(job, spec), s.sp, job), nil
		},
		CancelJob:  s.fleet.coord.CancelJob,
		MaxRunning: 2,
		StateDir:   stateDir,
		Cache:      memo,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	mux := http.NewServeMux()
	srv.Routes(mux)
	hs := httptest.NewServer(mux)
	defer hs.Close()
	client := hs.Client()

	seeds, tenantB := s.jobSeeds()
	sr := &svcRep{jobs: make([]service.JobStatus, svcJobs), memo: make([]bool, svcJobs)}
	submitAt := make([]int64, svcJobs)
	for i, seed := range seeds {
		tenant := "a"
		if tenantB[i] {
			tenant = "b"
		}
		body, err := json.Marshal(service.JobRequest{
			Tenant: tenant, Spec: s.spec, Algorithm: "RAND", MaxEvals: jobEvals, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		submitAt[i] = s.tr.now()
		start := time.Now()
		if err := httpJSON(ctx, client, http.MethodPost, hs.URL+"/v1/jobs", body, http.StatusAccepted, &sr.jobs[i]); err != nil {
			return nil, fmt.Errorf("submit job %d: %w", i, err)
		}
		sr.submitMS = append(sr.submitMS, float64(time.Since(start))/1e6)
	}
	// Jobs finish roughly in submission order, so waiting for them one
	// after the other keeps the poll rate at one request per interval.
	for i := range sr.jobs {
		for !sr.jobs[i].State.Terminal() {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
			if err := httpJSON(ctx, client, http.MethodGet, hs.URL+"/v1/jobs/"+sr.jobs[i].ID, nil, http.StatusOK, &sr.jobs[i]); err != nil {
				return nil, fmt.Errorf("poll job %d: %w", i, err)
			}
		}
	}
	out := &repResult{budget: svcJobs * jobEvals, svc: sr}
	first, last := sr.jobs[0].SubmittedUnixNS, int64(0)
	for i, st := range sr.jobs {
		if st.State != service.StateDone {
			return nil, fmt.Errorf("job %s (seed %d) ended %s: %s", st.ID, seeds[i], st.State, st.Error)
		}
		first, last = min(first, st.SubmittedUnixNS), max(last, st.FinishedUnixNS)
		sr.turnaroundS = append(sr.turnaroundS, float64(st.FinishedUnixNS-st.SubmittedUnixNS)/1e9)
		for j, other := range sr.jobs {
			if j != i && seeds[j] == seeds[i] && other.FinishedUnixNS <= st.StartedUnixNS {
				sr.memo[i] = true
			}
		}
		fetchAt := s.tr.now()
		start := time.Now()
		var res *core.Result
		err := httpDo(ctx, client, http.MethodGet, hs.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, func(r io.Reader) (err error) {
			res, err = core.ReadResult(r)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("result of job %s: %w", st.ID, err)
		}
		sr.fetchMS = append(sr.fetchMS, float64(time.Since(start))/1e6)
		out.results = append(out.results, res)
		s.jobSpans(st, submitAt[i], sr.submitMS[i], fetchAt)
	}
	out.wallS = float64(last-first) / 1e9
	out.requeues = s.fleet.coord.Status().RequeuesTotal
	sr.cache = memo.Stats()
	sr.stateBytes, err = dirSize(stateDir)
	return out, err
}

func (s *svcInstance) probes(rep *repResult) (map[string]float64, error) {
	ds, err := groundtruth.GenerateWorkflowData(s.ds)
	if err != nil {
		return nil, err
	}
	pts := firstPoints(rep.results[0].History)
	out, err := wfProbe(wfsim.HighestDetail, ds, pts)
	if err != nil {
		return nil, err
	}
	frames, err := frameProbe(s.spec, pts[0])
	if err != nil {
		return nil, err
	}
	maps.Copy(out, frames)
	out["cache.hit_us_p50"], err = cacheHitProbe()
	return out, err
}

// verify holds every job's result (both tenants) against an untimed
// serial core.Calibrator run of the same spec and seed — the repo's own
// service-vs-serial contract.
func (s *svcInstance) verify(ctx context.Context, last *repResult, hasGolden bool) ([]string, error) {
	if hasGolden {
		return nil, nil
	}
	sim, err := simspec.BuildSimulator(s.spec)
	if err != nil {
		return nil, err
	}
	seeds, _ := s.jobSeeds()
	serial := map[int64]*core.Result{}
	var bad []string
	for i, res := range last.results {
		want, ok := serial[seeds[i]]
		if !ok {
			cal := core.Calibrator{
				Space: s.sp, Simulator: sim, Algorithm: opt.Random{},
				MaxEvaluations: last.budget / svcJobs, Workers: 2, Seed: seeds[i],
			}
			if want, err = cal.Run(ctx); err != nil {
				return nil, err
			}
			serial[seeds[i]] = want
		}
		if err := sameTrajectory(s.sp, res, want); err != nil {
			bad = append(bad, fmt.Sprintf("job %d (seed %d) vs serial run: %v", i, seeds[i], err))
		}
	}
	return bad, nil
}

// jobSpans records service.job → {submit, queued, running, result}
// from the client's clock (submit, result) and the server's stamps
// (queued, running), mapped onto the tracer's epoch.
func (s *svcInstance) jobSpans(st service.JobStatus, submitAt int64, submitMS float64, fetchAt int64) {
	if s.tr == nil || !s.tr.on.Load() {
		return
	}
	unix := func(ns int64) int64 { return ns - s.tr.epoch.UnixNano() }
	now := s.tr.now()
	for _, sp := range []span{
		{name: spanJob, start: submitAt, end: now},
		{name: spanSubmit, start: submitAt, end: submitAt + int64(submitMS*1e6)},
		{name: spanQueued, start: unix(st.SubmittedUnixNS), end: unix(st.StartedUnixNS)},
		{name: spanRunning, start: unix(st.StartedUnixNS), end: unix(st.FinishedUnixNS)},
		{name: spanResult, start: fetchAt, end: now},
	} {
		sp.job = st.ID
		s.tr.add(sp)
	}
}

// httpDo does one request and hands the body of the expected response
// to decode.
func httpDo(ctx context.Context, c *http.Client, method, url string, body []byte, want int, decode func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return decode(resp.Body)
}

// httpJSON is httpDo for a JSON response.
func httpJSON(ctx context.Context, c *http.Client, method, url string, body []byte, want int, out any) error {
	return httpDo(ctx, c, method, url, body, want, func(r io.Reader) error { return json.NewDecoder(r).Decode(out) })
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
