package groundtruth

import (
	"fmt"
	"math"

	"simcal/internal/core"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/stats"
)

// MPIReferenceVersion is the reference MPI platform's level of detail: a
// Summit-like fat tree, complex two-socket nodes, and the adaptive
// protocol with its true change points.
var MPIReferenceVersion = mpisim.Version{
	Network:  mpisim.FatTree,
	Node:     mpisim.ComplexNode,
	Protocol: mpisim.FixedPoints,
}

// MPITruth holds the hidden true parameters of the reference MPI
// platform (Summit-like: dual-rail EDR NICs, POWER9 X-Bus, PCIe gen4).
var MPITruth = mpisim.Config{
	LinkBW:  12.5e9, // bytes/s per node link
	LinkLat: 1e-6,
	XBusBW:  64e9,
	PCIeBW:  16e9,
	Protocol: mpi.Protocol{
		Factors:      [3]float64{0.3, 0.7, 0.95},
		ChangePoints: mpisim.KnownChangePoints,
	},
	HostLatency: 2e-6,
}

// MPITruthPoint returns the true parameters as a calibration point in
// the given version's space (for versions sharing the reference's
// parameters).
func MPITruthPoint(v mpisim.Version) core.Point {
	p := core.Point{
		mpisim.ParamFactor1: MPITruth.Protocol.Factors[0],
		mpisim.ParamFactor2: MPITruth.Protocol.Factors[1],
		mpisim.ParamFactor3: MPITruth.Protocol.Factors[2],
	}
	switch v.Network {
	case mpisim.Backbone:
		p[mpisim.ParamBackboneBW] = MPITruth.LinkBW * 8 // an aggregate macro-link guess
		p[mpisim.ParamBackboneLat] = MPITruth.LinkLat
	case mpisim.BackboneLinks:
		p[mpisim.ParamBackboneBW] = MPITruth.LinkBW * 8
		p[mpisim.ParamBackboneLat] = MPITruth.LinkLat
		p[mpisim.ParamLinkBW] = MPITruth.LinkBW
		p[mpisim.ParamLinkLat] = MPITruth.LinkLat
	case mpisim.Tree4, mpisim.FatTree:
		p[mpisim.ParamLinkBW] = MPITruth.LinkBW
		p[mpisim.ParamLinkLat] = MPITruth.LinkLat
	}
	switch v.Node {
	case mpisim.SimpleNode:
		p[mpisim.ParamNICBW] = MPITruth.PCIeBW
	case mpisim.ComplexNode:
		p[mpisim.ParamXBusBW] = MPITruth.XBusBW
		p[mpisim.ParamPCIeBW] = MPITruth.PCIeBW
	}
	if v.Protocol == mpisim.FreePoints {
		p[mpisim.ParamChange1] = MPITruth.Protocol.ChangePoints[0]
		p[mpisim.ParamChange2] = MPITruth.Protocol.ChangePoints[1]
	}
	return p
}

// mpiNoise is the reference MPI platform's run-to-run variability.
func mpiNoise(seed int64) *mpisim.NoiseModel {
	return &mpisim.NoiseModel{
		Seed:            seed,
		BandwidthSpread: 0.04,
		LatencySpread:   0.10,
		NodeSpread:      0.02,
	}
}

// scaleCongestionExp models the scale-dependent effects a real
// production fabric exhibits but none of the candidate simulator
// versions can express (adaptive-routing congestion, background traffic,
// OS interference — all growing with allocation size): effective
// per-node bandwidth shrinks as nodes^-α. This is what makes calibrations
// computed at one scale fail to generalize to larger scales — the
// paper's Section 6.5 negative result, which its authors attribute to
// incomplete information about how the ground truth was obtained.
const scaleCongestionExp = 0.3

// scaleCongestion returns the bandwidth multiplier at a node count.
func scaleCongestion(nodes int) float64 {
	return math.Pow(float64(nodes)/8.0, -scaleCongestionExp)
}

// MPIMeasurement is the ground truth for one (benchmark, nodes, message
// size) configuration: repeated data-transfer-rate samples.
type MPIMeasurement struct {
	Benchmark mpi.Benchmark
	Nodes     int
	MsgBytes  float64
	// Rates holds one aggregate transfer rate (bytes/s) per repetition.
	Rates []float64
}

// Key identifies the measurement.
func (m *MPIMeasurement) Key() string {
	return fmt.Sprintf("%s@%dn/%gB", m.Benchmark, m.Nodes, m.MsgBytes)
}

// MeanRate averages the samples.
func (m *MPIMeasurement) MeanRate() float64 { return stats.Mean(m.Rates) }

// MPIDataset is a collection of MPI ground-truth measurements.
type MPIDataset struct {
	Measurements []*MPIMeasurement
}

// Filter returns the subset of measurements satisfying keep.
func (d *MPIDataset) Filter(keep func(*MPIMeasurement) bool) *MPIDataset {
	out := &MPIDataset{}
	for _, m := range d.Measurements {
		if keep(m) {
			out.Measurements = append(out.Measurements, m)
		}
	}
	return out
}

// MPIOptions selects the ground-truth grid to execute.
type MPIOptions struct {
	Benchmarks []mpi.Benchmark // default: all four
	Nodes      []int           // default {128, 256, 512}
	MsgSizes   []float64       // default 2^10 … 2^22
	Rounds     int             // default 4
	Reps       int             // default 5
	Seed       int64
}

// GenerateMPIData measures the selected configurations on the reference
// platform. Deterministic given the options.
func GenerateMPIData(o MPIOptions) (*MPIDataset, error) {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = mpi.AllBenchmarks
	}
	if len(o.Nodes) == 0 {
		o.Nodes = []int{128, 256, 512}
	}
	if len(o.MsgSizes) == 0 {
		o.MsgSizes = mpisim.MsgSizes()
	}
	if o.Reps <= 0 {
		o.Reps = 5
	}
	ds := &MPIDataset{}
	sim := mpisim.NewRunner(MPIReferenceVersion) // warm across the whole grid
	seedStream := stats.NewRNG(o.Seed)
	for _, b := range o.Benchmarks {
		for _, n := range o.Nodes {
			for _, m := range o.MsgSizes {
				meas := &MPIMeasurement{Benchmark: b, Nodes: n, MsgBytes: m}
				for rep := 0; rep < o.Reps; rep++ {
					cfg := MPITruth
					cong := scaleCongestion(n)
					cfg.LinkBW *= cong
					cfg.PCIeBW *= cong
					cfg.Noise = mpiNoise(seedStream.Int63())
					rate, err := sim.Run(cfg, mpisim.Scenario{
						Benchmark: b, Nodes: n, MsgBytes: m, Rounds: o.Rounds, Seed: int64(rep),
					})
					if err != nil {
						return nil, fmt.Errorf("groundtruth: %s %dn %gB: %w", b, n, m, err)
					}
					meas.Rates = append(meas.Rates, rate)
				}
				ds.Measurements = append(ds.Measurements, meas)
			}
		}
	}
	return ds, nil
}

// SyntheticMPIData runs the candidate simulator version itself at the
// planted calibration, noise-free, to produce synthetic ground truth
// with a single sample per configuration (SMPI-style simulations are
// deterministic, as the paper notes).
func SyntheticMPIData(v mpisim.Version, planted core.Point, template *MPIDataset, rounds int) (*MPIDataset, error) {
	cfg := v.DecodeConfig(planted)
	out := &MPIDataset{}
	sim := mpisim.NewRunner(v)
	for _, m := range template.Measurements {
		rate, err := sim.Run(cfg, mpisim.Scenario{
			Benchmark: m.Benchmark, Nodes: m.Nodes, MsgBytes: m.MsgBytes, Rounds: rounds, Seed: 0,
		})
		if err != nil {
			return nil, fmt.Errorf("groundtruth: synthetic %s: %w", m.Key(), err)
		}
		out.Measurements = append(out.Measurements, &MPIMeasurement{
			Benchmark: m.Benchmark, Nodes: m.Nodes, MsgBytes: m.MsgBytes,
			Rates: []float64{rate},
		})
	}
	return out, nil
}
