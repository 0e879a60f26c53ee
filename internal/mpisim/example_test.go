package mpisim_test

import (
	"fmt"

	"simcal/internal/groundtruth"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
)

// ExampleSimulate sweeps one Intel MPI Benchmark over the paper's message
// sizes on one level of detail at the reference ("true") parameter
// values. The protocol's change points show as the two jumps in rate.
func ExampleSimulate() {
	v := mpisim.Version{Network: mpisim.FatTree, Node: mpisim.ComplexNode, Protocol: mpisim.FixedPoints}
	sc := mpisim.Scenario{Benchmark: mpi.PingPong, Nodes: 16, Rounds: 4}
	fmt.Printf("benchmark: %s, %d nodes × 6 ranks, version %s\n", sc.Benchmark, sc.Nodes, v.Name())
	fmt.Printf("%12s  %14s\n", "bytes", "rate (MB/s)")
	for _, m := range mpisim.MsgSizes() {
		sc.MsgBytes = m
		rate, err := mpisim.Simulate(v, groundtruth.MPITruth, sc)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%12.0f  %14.1f\n", m, rate/1e6)
	}
	// Output:
	// benchmark: PingPong, 16 nodes × 6 ranks, version fat-tree/complex-node/fixed-points
	//        bytes     rate (MB/s)
	//         1024          8717.4
	//         2048         13509.2
	//         4096         18629.5
	//         8192         40886.0
	//        16384         51621.0
	//        32768         59421.8
	//        65536         64278.6
	//       131072         89588.9
	//       262144         92215.1
	//       524288         93586.9
	//      1048576         94288.1
	//      2097152         94642.7
	//      4194304         94821.0
}
