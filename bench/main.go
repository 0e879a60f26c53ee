// Command bench is the repository's end-to-end benchmark: five
// fixed-seed reference calibrations in the four deployment shapes
// (serial, loopback fleet, TCP fleet, simcald job), measured from
// outside through public functions and extension points only.
//
//	go run ./bench                      # all workloads, end to end, writes bench/out/report.json
//	go run ./bench -trace 1             # … plus the traced pass: per-layer metrics, bench/out/spans-*.json
//	go run ./bench -workload NAME       # one workload; the last stdout line is the driver's JSON object
//	go run ./bench -compare A.json B.json
//	go run ./bench -list
//	go run ./bench -record              # rewrite bench/golden.json (seeds 1 and 2)
//
// See README.md in this directory for the metrics and the protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// processStart is taken as early as the program can: setup_s runs from
// here to the first timed repetition.
var processStart = time.Now()

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after a run whose outputs failed their
// checks has been fully reported.
var errIncorrect = errors.New("outputs failed their correctness checks")

func run() error {
	var (
		name    = flag.String("workload", "", "run only this workload, in this process (default: every workload, one child process each)")
		seed    = flag.Int64("seed", 1, "drives dataset generation and the calibration seed")
		seconds = flag.Float64("seconds", 10, "how long the end-to-end pass keeps starting timed repetitions (at least 3 always run)")
		trace   = flag.Int("trace", 0, "1: run the traced pass (span recorder and probes on) and report per-layer metrics; with -workload, instead of the end-to-end pass")
		list    = flag.Bool("list", false, "print workload and metric names and exit")
		record  = flag.Bool("record", false, "run the deterministic workloads for seeds 1 and 2 and rewrite bench/golden.json")
		compare = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for report.json, spans-*.json and scratch state")
		part    = flag.String("report", "", "with -workload: also write the workload's report to this file (how the parent collects its children)")
	)
	flag.Parse()
	ctx := context.Background()
	switch {
	case *list:
		printList()
		return nil
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *record:
		return recordGolden(ctx, filepath.Join("bench", "golden.json"), *outDir)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if *name == "" {
		return runSuite(ctx, *seed, *seconds, *trace == 1, *outDir)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (see -list)", *name)
	}
	o := runOpts{seed: *seed, seconds: *seconds, scale: 1, setups: 5, started: processStart, tmpDir: *outDir}
	pass := runE2E
	if *trace == 1 {
		pass = runTraced
		o.spansPath = filepath.Join(*outDir, "spans-"+w.name+".json")
	}
	rep, err := pass(ctx, w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	rep.print(os.Stdout)
	if *part != "" {
		if err := writeJSONFile(*part, rep); err != nil {
			return err
		}
	}
	line, err := rep.contractLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.correct() {
		return errIncorrect
	}
	return nil
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-22s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (tracing off; median of the timed repetitions):")
	for _, m := range e2eMetrics {
		fmt.Printf("  %-28s %-6s %s is better, bound %.0f%%\n", m.name, m.unit, m.better, 100*m.bound)
	}
	fmt.Printf("  %-28s %-6s must be 0\n", "failed_ops_ratio", "ratio")
	fmt.Println("per-layer metrics (traced pass and probes):")
	for _, m := range layerMetrics {
		fmt.Printf("  %-28s %s\n", m.name, m.unit)
	}
}

func compareFiles(pathA, pathB string) error {
	var a, b report
	if err := readJSONFile(pathA, &a); err != nil {
		return err
	}
	if err := readJSONFile(pathB, &b); err != nil {
		return err
	}
	regressed, unresolved := compareReports(os.Stdout, &a, &b)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d comparisons regressed", regressed)
	}
	return nil
}

// runSuite runs every workload in a child process of its own, so that
// heap, GC state and peak RSS do not leak from one workload into the
// next, and merges the children's reports into report.json.
func runSuite(ctx context.Context, seed int64, seconds float64, traced bool, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	full := report{Host: thisHost(), Seed: seed, Seconds: seconds}
	incorrect := false
	for _, w := range workloads {
		merged := &workloadReport{}
		for pass := 0; pass < 2; pass++ {
			if pass == 1 && !traced {
				break
			}
			partPath := filepath.Join(outDir, "part-"+w.name+".json")
			cmd := exec.CommandContext(ctx, self,
				"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(pass), "-out", outDir, "-report", partPath)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var rep workloadReport
			if err := readJSONFile(partPath, &rep); err != nil {
				return errors.Join(fmt.Errorf("%s: child left no report", w.name), runErr, err)
			}
			os.Remove(partPath)
			if pass == 0 {
				merged = &rep
			} else {
				merged.PerLayer, merged.SelfTimeS = rep.PerLayer, rep.SelfTimeS
				merged.Attempted += rep.Attempted
				merged.Failed += rep.Failed
				merged.Mismatches = append(merged.Mismatches, rep.Mismatches...)
			}
			incorrect = incorrect || !rep.correct()
		}
		full.Workloads = append(full.Workloads, merged)
	}
	path := filepath.Join(outDir, "report.json")
	if err := writeJSONFile(path, full); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if incorrect {
		return errIncorrect
	}
	return nil
}

// recordGolden runs every deterministic workload once for each golden
// seed and rewrites the golden file.
func recordGolden(ctx context.Context, path, tmpDir string) error {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	golden := goldenDoc{}
	for _, w := range workloads {
		if !w.deterministic {
			continue
		}
		golden[w.name] = map[string]fingerprint{}
		for _, seed := range goldenSeeds {
			inst, err := w.setup(setupArgs{seed: seed, tmpDir: tmpDir})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			r, err := inst.rep(ctx, w.budget(1))
			inst.close()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			fp := fingerprintOf(inst.space(), r.results)
			golden[w.name][strconv.FormatInt(seed, 10)] = fp
			fmt.Printf("%-22s seed %d  %+v\n", w.name, seed, fp)
		}
	}
	return writeJSONFile(path, golden)
}
