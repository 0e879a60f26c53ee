package main

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"time"

	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/service"
	"simcal/internal/stats"
)

// runOpts parameterises one pass over one workload.
type runOpts struct {
	seed int64
	// seconds is how long the end-to-end pass keeps starting timed
	// repetitions (it always runs at least minReps).
	seconds float64
	// scale multiplies evaluation budgets; 1 is the benchmark.
	scale float64
	// setups is how many times the end-to-end pass sets the workload
	// up; setup_s is the median.
	setups int
	// started is when the process started: the first set-up is timed
	// from there.
	started time.Time
	// tmpDir holds svc-wf-jobs's StateDirs; spansPath, when set, is
	// where the traced pass writes its span tree.
	tmpDir, spansPath string
}

const (
	minReps = 3
	// untracedReps is how many repetitions the traced pass runs with
	// tracing off before the traced one, for the overhead ratio.
	untracedReps = 3
)

// workloadReport is one workload's part of report.json.
type workloadReport struct {
	Name        string `json:"name"`
	Seed        int64  `json:"seed"`
	EvalsPerRep int    `json:"evals_per_rep"`
	// EndToEnd is filled by the end-to-end pass, PerLayer and SelfTimeS
	// by the traced pass.
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	SelfTimeS map[string]float64 `json:"self_time_s,omitempty"`
	// Attempted counts the evaluations budgeted over the measured
	// repetitions; Failed those that are missing plus one per failed
	// check. failed_ops_ratio is Failed/Attempted and must be 0.
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Mismatches []string `json:"mismatches,omitempty"`
}

func (r *workloadReport) correct() bool { return r.Failed == 0 }

// account fills the correctness counters from the measured repetitions
// and the check's mismatches.
func (r *workloadReport) account(reps []*repResult, mismatches []string) {
	for _, rep := range reps {
		r.Attempted += rep.budget
		if missing := rep.budget - rep.evals(); missing > 0 {
			r.Failed += missing
		}
	}
	r.Failed += len(mismatches)
	r.Mismatches = mismatches
}

// warmBudget is the warm-up repetition's budget: a quarter of a timed
// one. It touches every cache a full repetition does (generated
// workflows, worker-side simulators, the page cache) at a quarter of
// the cost, which is what lets a run afford several set-ups.
func warmBudget(w workload, evals int) int {
	return max(w.minEvals, evals/4)
}

// timeToTargetS is the seconds from calibration start to the first
// sample whose incumbent is at or below the target — the incumbent
// after half the budget. On a deterministic trajectory that is the same
// sample in every repetition.
func timeToTargetS(res *core.Result) float64 {
	times, losses := res.LossOverTime()
	target := losses[max(len(losses)/2-1, 0)]
	for i, l := range losses {
		if l <= target {
			return times[i].Seconds()
		}
	}
	return times[len(times)-1].Seconds()
}

func hasTimeToTarget(w workload, r *repResult) bool {
	return w.deterministic && len(r.results) == 1
}

// runE2E is the end-to-end pass: tracing off, nothing wrapped.
func runE2E(ctx context.Context, w workload, o runOpts) (*workloadReport, error) {
	evals := w.budget(o.scale)
	var inst instance
	var setupS []float64
	start := o.started
	for i := 0; i < o.setups; i++ {
		if inst != nil {
			inst.close()
			start = time.Now()
		}
		var err error
		if inst, err = w.setup(setupArgs{seed: o.seed, tmpDir: o.tmpDir}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if _, err := inst.rep(ctx, warmBudget(w, evals)); err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()

	samples := map[string][]float64{}
	var reps []*repResult
	for began := time.Now(); len(reps) < minReps || time.Since(began).Seconds() < o.seconds; {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := inst.rep(ctx, evals)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", len(reps), err)
		}
		runtime.ReadMemStats(&after)
		reps = append(reps, r)
		n := float64(max(r.evals(), 1))
		samples["evals_per_s"] = append(samples["evals_per_s"], n/r.wallS)
		samples["allocs_per_eval"] = append(samples["allocs_per_eval"], float64(after.Mallocs-before.Mallocs)/n)
		samples["heap_kb_per_eval"] = append(samples["heap_kb_per_eval"], float64(after.TotalAlloc-before.TotalAlloc)/n/1024)
		turnaround := r.wallS // a single calibration is a job of one
		if r.svc != nil {
			turnaround = stats.Median(r.svc.turnaroundS)
		}
		samples["job_turnaround_p50_s"] = append(samples["job_turnaround_p50_s"], turnaround)
		if hasTimeToTarget(w, r) {
			samples[timeToTarget] = append(samples[timeToTarget], timeToTargetS(r.results[0]))
		}
	}
	samples["setup_s"] = setupS

	rep := &workloadReport{Name: w.name, Seed: o.seed, EvalsPerRep: evals, EndToEnd: map[string]summary{}}
	for _, m := range e2eMetrics {
		if s := samples[m.name]; len(s) > 0 {
			rep.EndToEnd[m.name] = summarize(m.unit, s)
		}
	}
	bad, err := checkReps(ctx, w, inst, o.seed, o.scale, reps)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	rep.account(reps, bad)
	return rep, nil
}

// runTraced is the traced pass: a few repetitions with the recorder
// off, one with it on, then the probes.
func runTraced(ctx context.Context, w workload, o runOpts) (*workloadReport, error) {
	evals := w.budget(o.scale)
	tr := newTracer()
	inst, err := w.setup(setupArgs{seed: o.seed, tmpDir: o.tmpDir, tr: tr})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	if _, err := inst.rep(ctx, warmBudget(w, evals)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var reps []*repResult
	var untracedWall, ttt []float64
	for i := 0; i < untracedReps; i++ {
		r, err := inst.rep(ctx, evals)
		if err != nil {
			return nil, fmt.Errorf("untraced repetition %d: %w", i, err)
		}
		reps = append(reps, r)
		untracedWall = append(untracedWall, r.wallS)
		if hasTimeToTarget(w, r) {
			ttt = append(ttt, timeToTargetS(r.results[0]))
		}
	}

	frames0, bytes0 := tr.wire.frames.Load(), tr.wire.bytes.Load()
	tr.on.Store(true)
	repStart := tr.now()
	traced, err := inst.rep(ctx, evals)
	tr.on.Store(false)
	if err != nil {
		return nil, fmt.Errorf("traced repetition: %w", err)
	}
	tr.add(span{name: spanRepetition, start: repStart, end: tr.now()})
	reps = append(reps, traced)

	a := tr.attribute(traced.wallS, inst.effectiveWorkers())
	layers := tr.layers(a, traced, inst.coordinator())
	n := float64(max(traced.evals(), 1))
	if inst.coordinator() != nil {
		layers["dist.wire_bytes_per_eval"] = float64(tr.wire.bytes.Load()-bytes0) / n
		layers["dist.frames_per_eval"] = float64(tr.wire.frames.Load()-frames0) / n
	}
	layers["core.trace_overhead_ratio"] = traced.wallS / stats.Median(untracedWall)
	layers["core.time_to_target_s"] = p50(ttt)
	if traced.svc != nil {
		svcLayers(traced.svc, layers)
	}
	probed, err := inst.probes(traced)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	maps.Copy(layers, probed)
	tr.add(span{name: spanWorkload, start: 0, end: tr.now()})
	processLayers(o.started, layers)

	rep := &workloadReport{
		Name: w.name, Seed: o.seed, EvalsPerRep: evals,
		PerLayer: map[string]float64{},
		SelfTimeS: map[string]float64{
			"wall":              a.wallS,
			spanFit:             a.fitS,
			spanAcquire:         a.acquireS,
			spanEval:            a.coreEvalS,
			spanRemote:          a.distS,
			spanSim:             a.simS,
			"core.unattributed": a.unattributedS,
		},
	}
	for _, m := range layerMetrics {
		rep.PerLayer[m.name] = layers[m.name] // 0 where the layer is not exercised
	}
	bad, err := checkReps(ctx, w, inst, o.seed, o.scale, reps)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	rep.account(reps, bad)
	if o.spansPath != "" {
		if err := tr.writeSpans(o.spansPath, w.name); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// layers derives the per-layer metrics the spans of the traced
// repetition support.
func (t *tracer) layers(a attribution, traced *repResult, coord *dist.Coordinator) map[string]float64 {
	evalSpans, remotes, sims := t.byName(spanEval), t.byName(spanRemote), t.byName(spanSim)
	fits, acqs := t.byName(spanFit), t.byName(spanAcquire)
	waits := make([]float64, len(evalSpans))
	for i, s := range evalSpans {
		waits[i] = float64(s.wait) / 1e6
	}
	t.mu.Lock()
	out := map[string]float64{
		"core.batches":             float64(t.batches),
		"opt.fit_points_max":       float64(t.fitPointsMax),
		"opt.acq_predict_s":        float64(t.predictNS) / 1e9,
		"opt.async_idle_ms_p50":    p50(t.asyncIdle),
		"opt.async_fantasies_mean": mean(t.fantasies),
		"opt.async_retractions":    float64(t.retractions),
	}
	t.mu.Unlock()
	maps.Copy(out, map[string]float64{
		"core.queue_wait_ms_p50":  p50(waits),
		"core.queue_wait_ms_p99":  p99(waits),
		"core.eval_ms_p50":        p50(durationsMS(evalSpans)),
		"core.eval_ms_p99":        p99(durationsMS(evalSpans)),
		"core.unattributed_s":     a.unattributedS,
		"core.unattributed_share": a.unattributedS / a.wallS,
		"opt.fit_s":               sumDur(fits),
		"opt.fit_count":           float64(len(fits)),
		"opt.acq_s":               sumDur(acqs),
		"opt.share":               (a.fitS + a.acquireS) / a.wallS,
		"sim.run_ms_p50":          p50(durationsMS(sims)),
		"sim.run_ms_p99":          p99(durationsMS(sims)),
		"sim.busy_s":              sumDur(sims),
		"sim.share":               a.simS / a.wallS,
	})
	if coord != nil {
		out["dist.remote_eval_ms_p50"] = p50(durationsMS(remotes))
		out["dist.remote_eval_ms_p99"] = p99(durationsMS(remotes))
		if len(remotes) > 0 {
			out["dist.overhead_us_per_eval"] = (sumDur(remotes) - sumDur(sims)) / float64(len(remotes)) * 1e6
		}
		out["dist.worker_busy_ratio"] = sumDur(sims) / (traced.wallS * float64(coord.Capacity()))
		out["dist.requeues"] = float64(traced.requeues)
	}
	return out
}

// svcLayers derives the cache and service metrics of one svc-wf-jobs
// repetition.
func svcLayers(sr *svcRep, out map[string]float64) {
	out["cache.hits"] = float64(sr.cache.Hits)
	out["cache.misses"] = float64(sr.cache.Misses)
	out["cache.inflight_waits"] = float64(sr.cache.InflightWaits)
	if total := sr.cache.Hits + sr.cache.Misses; total > 0 {
		out["cache.hit_ratio"] = float64(sr.cache.Hits) / float64(total)
	}
	var queued, fresh, memo []float64
	done := 0
	for i, st := range sr.jobs {
		queued = append(queued, float64(st.StartedUnixNS-st.SubmittedUnixNS)/1e9)
		run := float64(st.FinishedUnixNS-st.StartedUnixNS) / 1e9
		if sr.memo[i] {
			memo = append(memo, run)
		} else {
			fresh = append(fresh, run)
		}
		if st.State == service.StateDone {
			done++
		}
	}
	out["service.submit_ms_p50"] = p50(sr.submitMS)
	out["service.queue_wait_s_p50"] = p50(queued)
	out["service.run_fresh_s_p50"] = p50(fresh)
	out["service.run_memo_s_p50"] = p50(memo)
	out["service.result_fetch_ms_p50"] = p50(sr.fetchMS)
	out["service.state_bytes"] = float64(sr.stateBytes)
	out["service.jobs_done"] = float64(done)
	out["service.jobs_failed"] = float64(len(sr.jobs) - done)
}

// processLayers reports the whole process: everything since it started,
// set-up, untraced repetitions and probes included.
func processLayers(started time.Time, out map[string]float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["process.gc_cycles"] = float64(ms.NumGC)
	out["process.gc_pause_ms_total"] = float64(ms.PauseTotalNs) / 1e6
	cpuS, rssMB := rusage()
	out["process.peak_rss_mb"] = rssMB
	out["process.cpu_s"] = cpuS
	if wall := time.Since(started).Seconds(); wall > 0 {
		out["process.cpu_util"] = cpuS / (wall * float64(runtime.NumCPU()))
	}
}
