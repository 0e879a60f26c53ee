package groundtruth_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"

	"simcal/internal/groundtruth"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
)

// ExampleMPIDataset_WriteJSON generates MPI ground truth (the expensive
// step at paper scale), persists it as JSON, and reads it back the way a
// later calibration session would. The sha256 pins the document's bytes.
func ExampleMPIDataset_WriteJSON() {
	ds, err := groundtruth.GenerateMPIData(groundtruth.MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.PingPing, mpi.BiRandom, mpi.Stencil},
		Nodes:      []int{8}, MsgSizes: mpisim.MsgSizes(), Rounds: 4, Reps: 5, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	var doc bytes.Buffer
	if err := ds.WriteJSON(&doc); err != nil {
		panic(err)
	}
	fmt.Printf("wrote %d MPI measurements: %d bytes, sha256 %x\n",
		len(ds.Measurements), doc.Len(), sha256.Sum256(doc.Bytes()))
	back, err := groundtruth.ReadMPIDataset(&doc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("read back %d, identical: %v\n", len(back.Measurements), reflect.DeepEqual(back, ds))
	// Output:
	// wrote 52 MPI measurements: 8031 bytes, sha256 b4c26c8dca57f4ee1010af414deb352b07e7912322d75085738c1fa0a1cfbe78
	// read back 52, identical: true
}
