package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// report is bench/out/report.json: what -compare reads.
type report struct {
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadReport `json:"workloads"`
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

func thisHost() hostInfo {
	return hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// print writes every metric of the workload by name with its unit.
func (r *workloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "== %s  seed %d  %d evaluations per repetition\n", r.Name, r.Seed, r.EvalsPerRep)
	for _, m := range e2eMetrics {
		s, ok := r.EndToEnd[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-28s %14.6g %-5s (%s is better; min %.6g q1 %.6g q3 %.6g max %.6g, n=%d)\n",
			m.name, s.Median, s.Unit, m.better, s.Min, s.Q1, s.Q3, s.Max, s.N)
	}
	for _, m := range layerMetrics {
		if v, ok := r.PerLayer[m.name]; ok {
			fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	if len(r.SelfTimeS) > 0 {
		wall := r.SelfTimeS["wall"]
		fmt.Fprintf(out, "  self time of the traced repetition (wall %.4f s, per evaluation slot):\n", wall)
		names := make([]string, 0, len(r.SelfTimeS))
		for name := range r.SelfTimeS {
			if name != "wall" {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "    %-20s %10.4f s %6.1f %%\n", name, r.SelfTimeS[name], 100*r.SelfTimeS[name]/wall)
		}
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(out, "  %-28s %14.6g ratio (%d failed of %d attempted)\n", "failed_ops_ratio", ratio, r.Failed, r.Attempted)
	for _, m := range r.Mismatches {
		fmt.Fprintf(out, "  MISMATCH %s\n", m)
	}
}

// contractLine is the last line of a single-workload run: the object
// the benchmark driver parses. With tracing off it carries every
// end-to-end metric BENCHMARK.json lists (time_to_target_s is not among
// them, see e2eMetrics), with tracing on every per-layer metric.
func (r *workloadReport) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range e2eMetrics {
		if s, ok := r.EndToEnd[m.name]; ok && m.name != timeToTarget {
			metrics[m.name] = value{s.Median, m.unit}
		}
	}
	for _, m := range layerMetrics {
		if v, ok := r.PerLayer[m.name]; ok {
			metrics[m.name] = value{v, m.unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
}
