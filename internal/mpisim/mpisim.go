// Package mpisim implements case study #2's simulator of MPI benchmark
// executions on an HPC cluster, at 16 selectable levels of detail
// (Table 4): 4 network options × 2 compute-node options × 2 adaptive-
// protocol options. Each version exposes exactly the calibratable
// parameters its level of detail introduces.
package mpisim

import (
	"fmt"

	"simcal/internal/core"
	"simcal/internal/mpi"
)

// NetworkOption selects the network level of detail.
type NetworkOption int

const (
	// Backbone is a single shared backbone link.
	Backbone NetworkOption = iota
	// BackboneLinks adds a dedicated link per compute node in series
	// with the backbone.
	BackboneLinks
	// Tree4 is a 4-ary tree of switches.
	Tree4
	// FatTree is a Summit-like three-level non-blocking fat tree
	// (18 nodes per level-1 switch).
	FatTree
)

func (n NetworkOption) String() string {
	switch n {
	case Backbone:
		return "backbone"
	case BackboneLinks:
		return "backbone-links"
	case Tree4:
		return "tree4"
	case FatTree:
		return "fat-tree"
	default:
		return fmt.Sprintf("NetworkOption(%d)", int(n))
	}
}

// NodeOption selects the compute-node level of detail.
type NodeOption int

const (
	// SimpleNode abstracts the node as cores behind a NIC.
	SimpleNode NodeOption = iota
	// ComplexNode models two sockets, an X-Bus, and per-socket PCIe.
	ComplexNode
)

func (n NodeOption) String() string {
	if n == ComplexNode {
		return "complex-node"
	}
	return "simple-node"
}

// ProtocolOption selects the adaptive-protocol level of detail.
type ProtocolOption int

const (
	// FixedPoints calibrates three bandwidth factors with change points
	// known a priori (measured empirically on the real system).
	FixedPoints ProtocolOption = iota
	// FreePoints additionally calibrates the two change points,
	// increasing dimensionality by two.
	FreePoints
)

func (p ProtocolOption) String() string {
	if p == FreePoints {
		return "free-points"
	}
	return "fixed-points"
}

// KnownChangePoints are the empirically determined protocol switch sizes
// used by the FixedPoints option (eager→intermediate→rendez-vous).
var KnownChangePoints = [2]float64{8192, 131072} // 2^13, 2^17 bytes

// Version is one of the 16 simulator versions of Table 4.
type Version struct {
	Network  NetworkOption
	Node     NodeOption
	Protocol ProtocolOption
}

// Name returns a stable identifier like "fat-tree/complex-node/free-points".
func (v Version) Name() string {
	return fmt.Sprintf("%s/%s/%s", v.Network, v.Node, v.Protocol)
}

// AllVersions enumerates the 16 versions deterministically.
func AllVersions() []Version {
	var out []Version
	for _, nd := range []NodeOption{SimpleNode, ComplexNode} {
		for _, nw := range []NetworkOption{Backbone, BackboneLinks, Tree4, FatTree} {
			for _, pr := range []ProtocolOption{FixedPoints, FreePoints} {
				out = append(out, Version{Network: nw, Node: nd, Protocol: pr})
			}
		}
	}
	return out
}

// HighestDetail is the most detailed version (11 parameters).
var HighestDetail = Version{Network: BackboneLinks, Node: ComplexNode, Protocol: FreePoints}

// LowestDetail is the least detailed version (6 parameters).
var LowestDetail = Version{Network: Backbone, Node: SimpleNode, Protocol: FixedPoints}

// Parameter names.
const (
	ParamBackboneBW  = "backbone_bw_exp" // 2^x bytes/s
	ParamBackboneLat = "backbone_latency"
	ParamLinkBW      = "link_bw_exp" // 2^x bytes/s (node links / tree links)
	ParamLinkLat     = "link_latency"
	ParamNICBW       = "nic_bw_exp"
	ParamXBusBW      = "xbus_bw_exp"
	ParamPCIeBW      = "pcie_bw_exp"
	ParamFactor1     = "bw_factor_small"
	ParamFactor2     = "bw_factor_medium"
	ParamFactor3     = "bw_factor_large"
	ParamChange1     = "change_point_1_exp" // 2^x bytes
	ParamChange2     = "change_point_2_exp"
)

// Space returns the calibration search space for the version. Bandwidth
// ranges span at least an order of magnitude below and above Summit's
// specifications (searched in exponent space), latencies are in
// [0, 1ms], protocol factors in [0.05, 1], and free change points range
// over the full measured message-size band.
func (v Version) Space() core.Space {
	var sp core.Space
	switch v.Network {
	case Backbone:
		sp = append(sp,
			core.ParamSpec{Name: ParamBackboneBW, Kind: core.Exponential, Min: 25, Max: 42},
			core.ParamSpec{Name: ParamBackboneLat, Kind: core.Continuous, Min: 0, Max: 0.001},
		)
	case BackboneLinks:
		sp = append(sp,
			core.ParamSpec{Name: ParamBackboneBW, Kind: core.Exponential, Min: 25, Max: 42},
			core.ParamSpec{Name: ParamBackboneLat, Kind: core.Continuous, Min: 0, Max: 0.001},
			core.ParamSpec{Name: ParamLinkBW, Kind: core.Exponential, Min: 25, Max: 42},
			core.ParamSpec{Name: ParamLinkLat, Kind: core.Continuous, Min: 0, Max: 0.001},
		)
	case Tree4, FatTree:
		sp = append(sp,
			core.ParamSpec{Name: ParamLinkBW, Kind: core.Exponential, Min: 25, Max: 42},
			core.ParamSpec{Name: ParamLinkLat, Kind: core.Continuous, Min: 0, Max: 0.001},
		)
	}
	switch v.Node {
	case SimpleNode:
		sp = append(sp, core.ParamSpec{Name: ParamNICBW, Kind: core.Exponential, Min: 25, Max: 42})
	case ComplexNode:
		sp = append(sp,
			core.ParamSpec{Name: ParamXBusBW, Kind: core.Exponential, Min: 25, Max: 42},
			core.ParamSpec{Name: ParamPCIeBW, Kind: core.Exponential, Min: 25, Max: 42},
		)
	}
	sp = append(sp,
		core.ParamSpec{Name: ParamFactor1, Kind: core.Continuous, Min: 0.05, Max: 1},
		core.ParamSpec{Name: ParamFactor2, Kind: core.Continuous, Min: 0.05, Max: 1},
		core.ParamSpec{Name: ParamFactor3, Kind: core.Continuous, Min: 0.05, Max: 1},
	)
	if v.Protocol == FreePoints {
		sp = append(sp,
			core.ParamSpec{Name: ParamChange1, Kind: core.Exponential, Min: 10, Max: 22},
			core.ParamSpec{Name: ParamChange2, Kind: core.Exponential, Min: 10, Max: 22},
		)
	}
	return sp
}

// Config holds decoded parameter values plus simulation knobs.
type Config struct {
	BackboneBW  float64
	BackboneLat float64
	LinkBW      float64
	LinkLat     float64
	NICBW       float64
	XBusBW      float64
	PCIeBW      float64
	Protocol    mpi.Protocol

	// RanksPerNode defaults to 6 (the paper's Summit runs).
	RanksPerNode int
	// HostLatency is the fixed per-message software latency (seconds).
	HostLatency float64
	// Noise, when non-nil, makes the simulation stochastic (ground-truth
	// generation only).
	Noise *NoiseModel
}

// NoiseModel captures run-to-run platform variability for ground truth.
type NoiseModel struct {
	Seed int64
	// BandwidthSpread perturbs every bandwidth for the run.
	BandwidthSpread float64
	// LatencySpread perturbs latencies for the run.
	LatencySpread float64
	// NodeSpread perturbs each node's NIC/PCIe bandwidth (heterogeneity).
	NodeSpread float64
}

// DecodeConfig maps a calibration point into a Config for this version.
func (v Version) DecodeConfig(p core.Point) Config {
	cfg := Config{}
	switch v.Network {
	case Backbone:
		cfg.BackboneBW = p[ParamBackboneBW]
		cfg.BackboneLat = p[ParamBackboneLat]
	case BackboneLinks:
		cfg.BackboneBW = p[ParamBackboneBW]
		cfg.BackboneLat = p[ParamBackboneLat]
		cfg.LinkBW = p[ParamLinkBW]
		cfg.LinkLat = p[ParamLinkLat]
	case Tree4, FatTree:
		cfg.LinkBW = p[ParamLinkBW]
		cfg.LinkLat = p[ParamLinkLat]
	}
	switch v.Node {
	case SimpleNode:
		cfg.NICBW = p[ParamNICBW]
	case ComplexNode:
		cfg.XBusBW = p[ParamXBusBW]
		cfg.PCIeBW = p[ParamPCIeBW]
	}
	cfg.Protocol.Factors = [3]float64{p[ParamFactor1], p[ParamFactor2], p[ParamFactor3]}
	if v.Protocol == FreePoints {
		c1, c2 := p[ParamChange1], p[ParamChange2]
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		cfg.Protocol.ChangePoints = [2]float64{c1, c2}
	} else {
		cfg.Protocol.ChangePoints = KnownChangePoints
	}
	return cfg
}

// Scenario is one ground-truth data point: a benchmark at a message size
// on a node count.
type Scenario struct {
	Benchmark mpi.Benchmark
	Nodes     int
	MsgBytes  float64
	// Rounds defaults to 4; Seed drives BiRandom pairing.
	Rounds int
	Seed   int64
}

// Simulate runs the benchmark under the version's level of detail and
// returns the aggregate data transfer rate in bytes/s. Deterministic
// unless cfg.Noise is set. It is a one-shot Runner: callers that simulate
// repeatedly should keep one.
func Simulate(v Version, cfg Config, sc Scenario) (float64, error) {
	return NewRunner(v).Run(cfg, sc)
}

// MsgSizes returns the paper's message-size sweep: 2^x bytes for
// x ∈ {10, …, 22}.
func MsgSizes() []float64 {
	var out []float64
	for x := 10; x <= 22; x++ {
		out = append(out, float64(int64(1)<<uint(x)))
	}
	return out
}
