package mpisim

import (
	"fmt"

	"simcal/internal/mpi"
	"simcal/internal/platform"
	"simcal/internal/stats"
)

// Runner simulates benchmark executions at one level of detail any
// number of times. Everything that does not depend on the parameter
// values is done once: per node count a cluster — hosts, links and routes
// — is built, its first run adds the fabric (node-internal resources,
// rank placement), and a benchmark's first run compiles it into a message
// program the fabric keeps and runs at any message size. After that a Run
// only resets the kernel, writes the configuration's bandwidths and
// latencies into the platform, and simulates — a warmed Runner allocates
// nothing per run, and keeps what it built for as long as it lives.
//
// A Runner is not safe for concurrent use. Results are bit-identical to
// a freshly built simulator's for every sequence of configurations and
// scenarios; see DESIGN.md §9 "Reuse contract".
type Runner struct {
	v        Version
	clusters map[int]*cluster // by node count
}

// cluster is the platform of one node count.
type cluster struct {
	ps    *platform.Sim
	hosts []*platform.Host
	// The version's network: a backbone with or without per-node uplinks,
	// or one of the trees.
	backbone *platform.Link
	uplinks  []*platform.Link
	tree     *platform.Tree
	fatTree  *platform.FatTree

	fab *mpi.Fabric // placed for the last run's ranks per node
}

// NewRunner returns a Runner for the version's level of detail.
func NewRunner(v Version) *Runner {
	return &Runner{v: v, clusters: make(map[int]*cluster)}
}

// cluster returns the cluster of the given size, building it on first
// use. Capacities are placeholders until a run configures them.
func (r *Runner) cluster(nodes int) (*cluster, error) {
	if c := r.clusters[nodes]; c != nil {
		return c, nil
	}
	if nodes < 2 {
		return nil, fmt.Errorf("mpisim: need at least 2 nodes, got %d", nodes)
	}
	c := &cluster{hosts: make([]*platform.Host, nodes)}
	p := platform.New()
	for i := range c.hosts {
		c.hosts[i] = p.AddHost(platform.NewHost(fmt.Sprintf("node%04d", i), 1, 1e9))
	}
	switch r.v.Network {
	case Backbone:
		c.backbone = platform.NewLink("backbone", 1, 0)
		platform.SharedLinkTopology(p, c.hosts, c.backbone)
	case BackboneLinks:
		c.backbone = platform.NewLink("backbone", 1, 0)
		c.uplinks = make([]*platform.Link, nodes)
		for i := range c.uplinks {
			c.uplinks[i] = platform.NewLink(fmt.Sprintf("up%04d", i), 1, 0)
		}
		platform.BackboneTopology(p, c.hosts, c.backbone, c.uplinks)
	case Tree4:
		c.tree = platform.TreeTopology(p, c.hosts, platform.TreeSpec{Arity: 4, LeafBandwidth: 1})
	case FatTree:
		c.fatTree = platform.FatTreeTopology(p, c.hosts, platform.FatTreeSpec{GroupSize: 18, NodeBandwidth: 1})
	default:
		return nil, fmt.Errorf("mpisim: unknown network option %d", r.v.Network)
	}
	c.ps = platform.NewSim(p)
	r.clusters[nodes] = c
	return c, nil
}

// Run simulates the scenario under cfg and returns the aggregate data
// transfer rate in bytes/s. A Run that fails — or panics, and is
// recovered by the caller — leaves the Runner usable: the next Run on the
// cluster starts from a full reset.
func (r *Runner) Run(cfg Config, sc Scenario) (float64, error) {
	c, err := r.cluster(sc.Nodes)
	if err != nil {
		return 0, err
	}
	if cfg.RanksPerNode == 0 {
		cfg.RanksPerNode = 6
	}
	var rng *stats.RNG
	bwMult, latMult := 1.0, 1.0
	if cfg.Noise != nil {
		rng = stats.NewRNG(cfg.Noise.Seed)
		bwMult = rng.NoisyScale(cfg.Noise.BandwidthSpread)
		latMult = rng.NoisyScale(cfg.Noise.LatencySpread)
	}
	nodeMult := func() float64 {
		if rng == nil || cfg.Noise.NodeSpread <= 0 {
			return 1
		}
		return rng.NoisyScale(cfg.Noise.NodeSpread)
	}

	switch r.v.Network {
	case Backbone:
		if cfg.BackboneBW <= 0 {
			return 0, fmt.Errorf("mpisim: backbone requires positive bandwidth")
		}
		c.backbone.Configure(cfg.BackboneBW*bwMult, cfg.BackboneLat*latMult)
	case BackboneLinks:
		if cfg.BackboneBW <= 0 || cfg.LinkBW <= 0 {
			return 0, fmt.Errorf("mpisim: backbone-links requires positive bandwidths")
		}
		c.backbone.Configure(cfg.BackboneBW*bwMult, cfg.BackboneLat*latMult)
		for _, up := range c.uplinks {
			up.Configure(cfg.LinkBW*bwMult*nodeMult(), cfg.LinkLat*latMult)
		}
	case Tree4:
		if cfg.LinkBW <= 0 {
			return 0, fmt.Errorf("mpisim: tree requires positive link bandwidth")
		}
		c.tree.Configure(platform.TreeSpec{
			Arity:         4,
			LeafBandwidth: cfg.LinkBW * bwMult,
			Latency:       cfg.LinkLat * latMult,
		})
	case FatTree:
		if cfg.LinkBW <= 0 {
			return 0, fmt.Errorf("mpisim: fat tree requires positive link bandwidth")
		}
		c.fatTree.Configure(platform.FatTreeSpec{
			GroupSize:              18,
			NodeBandwidth:          cfg.LinkBW * bwMult,
			Latency:                cfg.LinkLat * latMult,
			UplinkOversubscription: 1,
		})
	}

	fc := mpi.FabricConfig{
		Nodes:        sc.Nodes,
		RanksPerNode: cfg.RanksPerNode,
		NICBW:        cfg.NICBW * bwMult * nodeMult(),
		XBusBW:       cfg.XBusBW * bwMult,
		PCIeBW:       cfg.PCIeBW * bwMult,
		HostLatency:  cfg.HostLatency * latMult,
		Protocol:     cfg.Protocol,
	}
	if r.v.Node == ComplexNode {
		fc.NodeModel = mpi.ComplexNode
	}
	if err := c.configureFabric(fc); err != nil {
		return 0, err
	}
	return mpi.Run(c.fab, mpi.RunSpec{
		Benchmark: sc.Benchmark,
		MsgBytes:  sc.MsgBytes,
		Rounds:    sc.Rounds,
		Seed:      sc.Seed,
	})
}

// configureFabric readies the fabric and the kernel under it for a
// simulation. Rank placement is part of a fabric's shape, so a
// configuration with another number of ranks per node gets a new fabric
// (with its own message programs) on the same platform.
func (c *cluster) configureFabric(fc mpi.FabricConfig) error {
	if c.fab != nil && c.fab.RanksPerNode() == fc.RanksPerNode {
		return c.fab.Configure(fc)
	}
	c.ps.Reset()
	for _, h := range c.hosts {
		h.Configure(fc.RanksPerNode, 1e9)
	}
	fab, err := mpi.NewFabric(c.ps, c.hosts, fc)
	if err != nil {
		return err
	}
	c.fab = fab
	return nil
}
