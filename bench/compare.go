package main

import (
	"fmt"
	"io"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worseBy is how much worse b's median is than a's, as a share of a's
// (negative when b is better).
func worseBy(m metricDef, a, b summary) float64 {
	d := (b.Median - a.Median) / a.Median
	if m.better == higher {
		d = -d
	}
	return d
}

// better reports whether x reads better than y for m.
func (m metricDef) betterThan(x, y float64) bool {
	if m.better == higher {
		return x > y
	}
	return x < y
}

// spread is a summary's interquartile range as a share of its median.
func spread(s summary) float64 { return (s.Q3 - s.Q1) / s.Median }

// classify compares change b against baseline a. When every run of one
// side beats every run of the other the answer does not depend on the
// spread. Otherwise a spread wider than the bound on either side means
// the medians cannot settle a difference of bound size: unresolved, not
// unchanged.
func classify(m metricDef, a, b summary) string {
	allBetter, allWorse := true, true
	for _, x := range b.Samples {
		for _, y := range a.Samples {
			if !m.betterThan(x, y) {
				allBetter = false
			}
			if !m.betterThan(y, x) {
				allWorse = false
			}
		}
	}
	worse := worseBy(m, a, b)
	switch {
	case allBetter:
		return verdictOK
	case allWorse && worse > m.bound:
		return verdictRegressed
	case spread(a) > m.bound || spread(b) > m.bound:
		return verdictUnresolved
	case worse > m.bound:
		return verdictRegressed
	}
	return verdictOK
}

// compareReports prints, per workload × end-to-end metric, both
// medians, their ratio with its base, the bound and the verdict, and
// returns how many comparisons came out regressed and unresolved.
func compareReports(out io.Writer, a, b *report) (regressed, unresolved int) {
	fmt.Fprintf(out, "%-22s %-22s %14s %14s %9s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil {
			fmt.Fprintf(out, "%-22s missing from B\n", wa.Name)
			unresolved++
			continue
		}
		for _, m := range e2eMetrics {
			sa, okA := wa.EndToEnd[m.name]
			sb, okB := wb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			v := classify(m, sa, sb)
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(out, "%-22s %-22s %14.6g %14.6g %9.4f %5.0f%%  %s\n",
				wa.Name, m.name, sa.Median, sb.Median, sb.Median/sa.Median, 100*m.bound, v)
		}
		if wb.Failed > 0 {
			fmt.Fprintf(out, "%-22s %-22s B has %d failed operations\n", wa.Name, "failed_ops_ratio", wb.Failed)
			regressed++
		}
	}
	return regressed, unresolved
}
