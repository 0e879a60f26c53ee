// Command mpisim runs the case-study-#2 MPI simulator on one Intel MPI
// Benchmarks configuration and prints the simulated data transfer rate.
//
// Usage:
//
//	mpisim -bench PingPong -nodes 128 -msg 65536
//	mpisim -bench Stencil -nodes 32 -network fat-tree -node complex
//	mpisim -bench PingPing -nodes 16 -sweep     # all message sizes
package main

import (
	"flag"
	"fmt"
	"os"

	"simcal/internal/groundtruth"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/simspec"
)

func main() {
	var (
		bench   = flag.String("bench", "PingPong", "benchmark: PingPong, PingPing, BiRandom, Stencil")
		nodes   = flag.Int("nodes", 16, "number of compute nodes")
		msg     = flag.Float64("msg", 65536, "message size in bytes")
		network = flag.String("network", "fat-tree", "network: backbone, backbone-links, tree4, fat-tree")
		node    = flag.String("node", "complex", "node model: simple, complex")
		proto   = flag.String("protocol", "fixed", "protocol change points: fixed, free")
		rounds  = flag.Int("rounds", 4, "exchange rounds")
		sweep   = flag.Bool("sweep", false, "sweep all message sizes 2^10..2^22")
	)
	flag.Parse()

	v, err := simspec.ParseMPIVersion(*network, *node, *proto)
	if err != nil {
		fatal(err)
	}
	cfg := groundtruth.MPITruth
	sizes := []float64{*msg}
	if *sweep {
		sizes = mpisim.MsgSizes()
	}
	fmt.Printf("benchmark: %s, %d nodes × 6 ranks, version %s\n", *bench, *nodes, v.Name())
	fmt.Printf("%12s  %14s\n", "bytes", "rate (MB/s)")
	for _, m := range sizes {
		rate, err := mpisim.Simulate(v, cfg, mpisim.Scenario{
			Benchmark: mpi.Benchmark(*bench), Nodes: *nodes, MsgBytes: m, Rounds: *rounds,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%12.0f  %14.1f\n", m, rate/1e6)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpisim:", err)
	os.Exit(1)
}
