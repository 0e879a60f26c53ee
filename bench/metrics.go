package main

import (
	"sort"

	"simcal/internal/stats"
)

// metricDef names one metric: the single list BENCHMARK.json, -list,
// the report, -compare and README.md are all checked against.
type metricDef struct {
	name string
	unit string
	// better is "higher" or "lower".
	better string
	// bound is the share of the baseline median an end-to-end metric may
	// worsen by before -compare calls it regressed; 0 for per-layer
	// metrics, which have none.
	bound float64
}

const (
	higher = "higher"
	lower  = "lower"
)

// e2eMetrics are measured with tracing off, one sample per timed
// repetition (setup_s: one per set-up), and reported as medians.
// time_to_target_s exists on the bitwise-deterministic single-
// calibration workloads only and is therefore absent from
// BENCHMARK.json's end_to_end list, which every workload must report in
// full: there it is the per-layer metric core.time_to_target_s.
//
// The bounds follow what this 2-core VM can resolve (README.md, "Noise"):
// the counts repeat to a fraction of a percent, run to run and seed to
// seed, and are held to 2-3 %; wall-clock throughput of the same binary
// on the same seed drifts by a quarter within minutes, so the timings
// get the widest bound the benchmark contract allows.
var e2eMetrics = []metricDef{
	{"evals_per_s", "1/s", higher, 0.25},
	{"time_to_target_s", "s", lower, 0.25},
	{"job_turnaround_p50_s", "s", lower, 0.25},
	{"allocs_per_eval", "count", lower, 0.02},
	{"heap_kb_per_eval", "kB", lower, 0.03},
	{"setup_s", "s", lower, 0.25},
}

const timeToTarget = "time_to_target_s"

// layerMetrics come from the traced pass and the probes, named
// <module>.<metric>. A metric whose layer a workload does not exercise
// reads 0 there.
var layerMetrics = []metricDef{
	{"core.queue_wait_ms_p50", "ms", lower, 0},
	{"core.queue_wait_ms_p99", "ms", lower, 0},
	{"core.eval_ms_p50", "ms", lower, 0},
	{"core.eval_ms_p99", "ms", lower, 0},
	{"core.batches", "count", lower, 0},
	{"core.unattributed_s", "s", lower, 0},
	{"core.unattributed_share", "ratio", lower, 0},
	{"core.trace_overhead_ratio", "ratio", lower, 0},
	{"core.time_to_target_s", "s", lower, 0},

	{"opt.fit_s", "s", lower, 0},
	{"opt.fit_count", "count", lower, 0},
	{"opt.fit_points_max", "count", lower, 0},
	{"opt.acq_s", "s", lower, 0},
	{"opt.acq_predict_s", "s", lower, 0},
	{"opt.share", "ratio", lower, 0},
	{"opt.async_idle_ms_p50", "ms", lower, 0},
	{"opt.async_fantasies_mean", "count", lower, 0},
	{"opt.async_retractions", "count", lower, 0},

	{"sim.run_ms_p50", "ms", lower, 0},
	{"sim.run_ms_p99", "ms", lower, 0},
	{"sim.busy_s", "s", lower, 0},
	{"sim.share", "ratio", lower, 0},
	{"wfsim.simulate_ms_per_eval", "ms", lower, 0},
	{"mpisim.simulate_ms_per_eval", "ms", lower, 0},
	{"loss.aggregate_us_per_eval", "us", lower, 0},

	{"dist.wire_bytes_per_eval", "B", lower, 0},
	{"dist.frames_per_eval", "count", lower, 0},
	{"dist.remote_eval_ms_p50", "ms", lower, 0},
	{"dist.remote_eval_ms_p99", "ms", lower, 0},
	{"dist.overhead_us_per_eval", "us", lower, 0},
	{"dist.frame_encode_us", "us", lower, 0},
	{"dist.frame_decode_us", "us", lower, 0},
	{"dist.worker_busy_ratio", "ratio", higher, 0},
	{"dist.requeues", "count", lower, 0},

	{"cache.hits", "count", higher, 0},
	{"cache.misses", "count", lower, 0},
	{"cache.inflight_waits", "count", lower, 0},
	{"cache.hit_ratio", "ratio", higher, 0},
	{"cache.hit_us_p50", "us", lower, 0},

	{"service.submit_ms_p50", "ms", lower, 0},
	{"service.queue_wait_s_p50", "s", lower, 0},
	{"service.run_fresh_s_p50", "s", lower, 0},
	{"service.run_memo_s_p50", "s", lower, 0},
	{"service.result_fetch_ms_p50", "ms", lower, 0},
	{"service.state_bytes", "B", lower, 0},
	{"service.jobs_done", "count", higher, 0},
	{"service.jobs_failed", "count", lower, 0},

	{"obs.observer_us_per_eval", "us", lower, 0},
	{"obs.observer_allocs_per_eval", "count", lower, 0},

	{"process.peak_rss_mb", "MB", lower, 0},
	{"process.cpu_s", "s", lower, 0},
	{"process.cpu_util", "ratio", higher, 0},
	{"process.gc_cycles", "count", lower, 0},
	{"process.gc_pause_ms_total", "ms", lower, 0},
}

// summary is what the report keeps of one metric's samples.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, samples []float64) summary {
	return summary{
		Unit:    unit,
		Median:  stats.Median(samples),
		Min:     stats.Min(samples),
		Max:     stats.Max(samples),
		Q1:      stats.Quantile(samples, 0.25),
		Q3:      stats.Quantile(samples, 0.75),
		N:       len(samples),
		Samples: samples,
	}
}

// p50 is the median, 0 without samples.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// p99 is the 99th percentile where at least ten samples lie beyond it,
// and 0 where the run is too short to support one.
func p99(xs []float64) float64 {
	if len(xs) < 1000 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)*99/100]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}
