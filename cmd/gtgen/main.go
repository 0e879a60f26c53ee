// Command gtgen generates ground-truth datasets (the expensive step at
// paper scale) and writes them as JSON for reuse across calibration
// sessions — the repository's analogue of the paper's published
// execution logs.
//
// Usage:
//
//	gtgen -case wf  -apps epigenomics,montage -reps 5 -out wf.json
//	gtgen -case mpi -nodes 128,256 -reps 5 -out mpi.json
//	gtgen -case wf -out -         # write to stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"simcal/internal/core"
	"simcal/internal/groundtruth"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/wfgen"
)

func main() {
	var (
		study  = flag.String("case", "wf", "case study: wf or mpi")
		out    = flag.String("out", "-", "output file ('-' for stdout)")
		reps   = flag.Int("reps", 5, "repetitions per configuration")
		seed   = flag.Int64("seed", 1, "random seed")
		apps   = flag.String("apps", "epigenomics", "wf: comma-separated applications ('all' for every Table 1 app)")
		sizes  = flag.String("sizes", "", "wf: comma-separated size indices into Table 1 (default all)")
		nodesF = flag.String("nodes", "8", "mpi: comma-separated node counts")
		bench  = flag.String("bench", "PingPong,PingPing,BiRandom,Stencil", "mpi: comma-separated benchmarks")
		rounds = flag.Int("rounds", 4, "mpi: exchange rounds")
	)
	flag.Parse()

	// write emits the generated dataset; summary describes it.
	var write func(io.Writer) error
	var summary string
	switch *study {
	case "wf":
		o := groundtruth.WFOptions{Reps: *reps, Seed: *seed}
		if *apps == "all" {
			o.Apps = wfgen.AllApps
		} else {
			for _, a := range strings.Split(*apps, ",") {
				o.Apps = append(o.Apps, wfgen.App(strings.TrimSpace(a)))
			}
		}
		if *sizes != "" {
			idx, err := parseInts(*sizes)
			if err != nil {
				fatal(err)
			}
			o.SizeIdx = idx
		}
		ds, err := groundtruth.GenerateWorkflowData(o)
		if err != nil {
			fatal(err)
		}
		write = ds.WriteJSON
		summary = fmt.Sprintf("%d workflow groups (cost %.0f worker-seconds)", len(ds.Groups), ds.Cost())
	case "mpi":
		nodes, err := parseInts(*nodesF)
		if err != nil {
			fatal(err)
		}
		var benches []mpi.Benchmark
		for _, b := range strings.Split(*bench, ",") {
			benches = append(benches, mpi.Benchmark(strings.TrimSpace(b)))
		}
		ds, err := groundtruth.GenerateMPIData(groundtruth.MPIOptions{
			Benchmarks: benches, Nodes: nodes, MsgSizes: mpisim.MsgSizes(),
			Rounds: *rounds, Reps: *reps, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		write = ds.WriteJSON
		summary = fmt.Sprintf("%d MPI measurements", len(ds.Measurements))
	default:
		fatal(fmt.Errorf("unknown case study %q", *study))
	}

	// Files are written atomically, so a crashed or killed generation
	// never leaves a torn dataset where a complete one is expected.
	var err error
	if *out == "-" {
		err = write(os.Stdout)
	} else {
		err = core.WriteFileAtomic(*out, write)
	}
	if err != nil {
		fatal(fmt.Errorf("writing %s: %w", *out, err))
	}
	fmt.Fprintf(os.Stderr, "gtgen: wrote %s\n", summary)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gtgen:", err)
	os.Exit(1)
}
