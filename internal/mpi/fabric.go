// Package mpi implements the message-passing substrate of case study #2:
// an SMPI-style rank-level simulator where every MPI point-to-point
// message becomes a fluid transfer across the resources on its path —
// node-internal buses (NIC, X-Bus, PCIe) and network links — with the
// adaptive eager/rendez-vous protocol modeled as piecewise-constant
// multiplicative bandwidth factors, exactly as in the SMPI network model
// the paper's simulator uses. The package also provides the four Intel
// MPI Benchmarks kernels the ground truth was collected with: PingPong,
// PingPing, BiRandom, and Stencil.
package mpi

import (
	"fmt"
	"math"

	"simcal/internal/flow"
	"simcal/internal/platform"
)

// NodeModel selects the compute-node level of detail.
type NodeModel int

const (
	// SimpleNode abstracts the node as cores behind a single NIC
	// resource.
	SimpleNode NodeModel = iota
	// ComplexNode models two sockets bridged by an X-Bus, each reaching
	// the NIC through its own PCIe bus — closer to a Summit node.
	ComplexNode
)

func (m NodeModel) String() string {
	if m == ComplexNode {
		return "complex"
	}
	return "simple"
}

// Protocol is the adaptive MPI protocol model: below ChangePoints[0]
// bytes the transfer rate is scaled by Factors[0], between the change
// points by Factors[1], and above by Factors[2].
type Protocol struct {
	Factors      [3]float64
	ChangePoints [2]float64 // bytes, ascending
}

// band is the index of the factor that applies to a message of the given
// size.
func (p Protocol) band(bytes float64) int {
	switch {
	case bytes < p.ChangePoints[0]:
		return 0
	case bytes < p.ChangePoints[1]:
		return 1
	default:
		return 2
	}
}

// Factor returns the bandwidth factor for a message of the given size.
func (p Protocol) Factor(bytes float64) float64 { return p.Factors[p.band(bytes)] }

// Validate rejects non-positive factors or disordered change points.
func (p Protocol) Validate() error {
	for _, f := range p.Factors {
		if f <= 0 || math.IsNaN(f) {
			return fmt.Errorf("mpi: non-positive protocol factor %g", f)
		}
	}
	if p.ChangePoints[0] > p.ChangePoints[1] {
		return fmt.Errorf("mpi: change points out of order: %g > %g", p.ChangePoints[0], p.ChangePoints[1])
	}
	return nil
}

// FabricConfig configures rank placement and node internals.
type FabricConfig struct {
	Nodes        int
	RanksPerNode int // default 6, matching the paper's Summit runs
	NodeModel    NodeModel

	// NICBW is the per-node NIC bandwidth (bytes/s) for SimpleNode.
	NICBW float64
	// XBusBW and PCIeBW are the per-node bus bandwidths (bytes/s) for
	// ComplexNode.
	XBusBW, PCIeBW float64
	// HostLatency is the per-message software/injection latency (s).
	HostLatency float64

	Protocol Protocol
}

// validate applies the rules NewFabric and Configure share.
func (cfg FabricConfig) validate() error {
	if err := cfg.Protocol.Validate(); err != nil {
		return err
	}
	switch cfg.NodeModel {
	case SimpleNode:
		if cfg.NICBW <= 0 {
			return fmt.Errorf("mpi: SimpleNode requires positive NIC bandwidth")
		}
	case ComplexNode:
		if cfg.XBusBW <= 0 || cfg.PCIeBW <= 0 {
			return fmt.Errorf("mpi: ComplexNode requires positive X-Bus and PCIe bandwidths")
		}
	default:
		return fmt.Errorf("mpi: unknown node model %d", cfg.NodeModel)
	}
	return nil
}

// Fabric wires ranks onto a routed platform and sends messages.
//
// A Fabric is built once and simulated on any number of times: Configure
// rewrites the bandwidths, latency and protocol between simulations,
// while everything that only depends on the fabric's shape — the
// node-internal resources and the compiled benchmark programs with the
// resource paths of their messages — is kept. Results are bit-identical
// to a freshly built fabric's; see DESIGN.md §9 "Reuse contract".
type Fabric struct {
	cfg   FabricConfig
	ps    *platform.Sim
	hosts []*platform.Host

	nic  []*flow.Resource    // SimpleNode: one per node
	xbus []*flow.Resource    // ComplexNode: one per node
	pcie [][2]*flow.Resource // ComplexNode: per node, per socket

	weight   [3]float64 // 1/factor per protocol band: what a message weighs on its resources
	gen      uint64     // configuration generation; paths catch up on their next use
	paths    pathTable  // of the messages Send was given under this configuration
	programs map[programKey]*program

	// Starts waiting out their latency, one bucket per timestamp. Buckets
	// are recycled when they fire and, wholesale, by Configure.
	pending map[float64]*bucket
	buckets []*bucket // every bucket made
	free    []*bucket
}

// NewFabric builds a fabric over the given simulation harness. hosts must
// be the platform's compute nodes, len(hosts) == cfg.Nodes, with routes
// installed between every pair (via a topology builder).
func NewFabric(ps *platform.Sim, hosts []*platform.Host, cfg FabricConfig) (*Fabric, error) {
	if cfg.Nodes != len(hosts) || cfg.Nodes < 1 {
		return nil, fmt.Errorf("mpi: %d hosts for %d nodes", len(hosts), cfg.Nodes)
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 6
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Fabric{
		ps: ps, hosts: hosts,
		paths:    make(pathTable),
		programs: make(map[programKey]*program),
		pending:  make(map[float64]*bucket),
	}
	for i := range hosts {
		switch cfg.NodeModel {
		case SimpleNode:
			f.nic = append(f.nic, &flow.Resource{Name: fmt.Sprintf("nic-%d", i)})
		case ComplexNode:
			f.xbus = append(f.xbus, &flow.Resource{Name: fmt.Sprintf("xbus-%d", i)})
			f.pcie = append(f.pcie, [2]*flow.Resource{
				{Name: fmt.Sprintf("pcie-%d-s0", i)},
				{Name: fmt.Sprintf("pcie-%d-s1", i)},
			})
		}
	}
	f.apply(cfg)
	return f, nil
}

// Configure prepares the fabric for another simulation under cfg, under
// NewFabric's validity rules: it resets the harness (see
// platform.Sim.Reset — link capacities are the caller's to reconfigure)
// and rewrites bandwidths, host latency and protocol. The fabric's shape
// — node count, ranks per node, node model — cannot change.
func (f *Fabric) Configure(cfg FabricConfig) error {
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 6
	}
	if cfg.Nodes != f.cfg.Nodes || cfg.RanksPerNode != f.cfg.RanksPerNode || cfg.NodeModel != f.cfg.NodeModel {
		return fmt.Errorf("mpi: fabric of %d×%d ranks on %s nodes configured as %d×%d on %s nodes",
			f.cfg.Nodes, f.cfg.RanksPerNode, f.cfg.NodeModel, cfg.Nodes, cfg.RanksPerNode, cfg.NodeModel)
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	f.ps.Reset()
	f.apply(cfg)
	return nil
}

func (f *Fabric) apply(cfg FabricConfig) {
	f.cfg = cfg
	for _, r := range f.nic {
		r.SetCapacity(cfg.NICBW)
	}
	for i, r := range f.xbus {
		r.SetCapacity(cfg.XBusBW)
		f.pcie[i][0].SetCapacity(cfg.PCIeBW)
		f.pcie[i][1].SetCapacity(cfg.PCIeBW)
	}
	for b, factor := range cfg.Protocol.Factors {
		f.weight[b] = 1 / factor
	}
	f.gen++
	clear(f.paths)
	clear(f.pending)
	f.free = append(f.free[:0], f.buckets...)
}

// Ranks returns the total number of MPI ranks.
func (f *Fabric) Ranks() int { return f.cfg.Nodes * f.cfg.RanksPerNode }

// RanksPerNode returns the number of ranks each node hosts.
func (f *Fabric) RanksPerNode() int { return f.cfg.RanksPerNode }

// Node returns the node index hosting rank r.
func (f *Fabric) Node(r int) int { return r / f.cfg.RanksPerNode }

// Socket returns the socket index (0 or 1) hosting rank r within its
// node: the first half of a node's ranks live on socket 0.
func (f *Fabric) Socket(r int) int {
	if r%f.cfg.RanksPerNode < (f.cfg.RanksPerNode+1)/2 {
		return 0
	}
	return 1
}

// Engine exposes the underlying event engine (for benchmarks).
func (f *Fabric) Engine() interface{ Now() float64 } { return f.ps.Engine }

// pathKey identifies the resources a message occupies: they depend on
// the ranks' nodes and, on complex nodes, sockets (0 on simple nodes).
type pathKey struct {
	srcNode, dstNode int32
	srcSock, dstSock int8
}

// path is what every message between two rank locations shares: the
// resources it occupies, in order — usages name resources, not
// capacities, so they survive reconfiguration — and, per configuration,
// its latency and the usages' weights.
type path struct {
	route   platform.Route   // nil within a node
	res     []*flow.Resource // empty for a latency-only message
	usage   [3][]flow.Usage  // res at each protocol band's weight, built on first use
	gen     uint64           // configuration latency and weights were written under
	latency float64          // host latency + route latency
}

// pathTable holds the paths of one simulation's messages — Send's
// between two Configures, or a program's. It cannot outlive that: the
// platform hands both directions of a node pair the link order of the
// direction asked for first, and a message's link order is the order its
// resources enter the flow solver in, so a path is only what a fresh
// fabric would have built if every pair was first asked for here.
type pathTable map[pathKey]*path

// pathBetween returns the table's path from rank src to a different rank
// dst, built on the pair's first message.
func (f *Fabric) pathBetween(paths pathTable, src, dst int) *path {
	s, d := f.Node(src), f.Node(dst)
	key := pathKey{srcNode: int32(s), dstNode: int32(d)}
	if f.cfg.NodeModel == ComplexNode {
		key.srcSock, key.dstSock = int8(f.Socket(src)), int8(f.Socket(dst))
	}
	if p := paths[key]; p != nil {
		return p
	}
	p := &path{}
	switch {
	case s != d:
		p.route = f.ps.Platform.RouteBetween(f.hosts[s], f.hosts[d])
		p.res = append(p.res, f.port(s, key.srcSock))
		for _, l := range p.route {
			p.res = append(p.res, l.Res)
		}
		p.res = append(p.res, f.port(d, key.dstSock))
	case key.srcSock != key.dstSock:
		p.res = []*flow.Resource{f.xbus[s]}
	}
	// Same-socket (or simple-node local) messages are latency-only.
	paths[key] = p
	return p
}

// port returns the resource through which a socket's ranks reach the
// network.
func (f *Fabric) port(node int, sock int8) *flow.Resource {
	if f.cfg.NodeModel == ComplexNode {
		return f.pcie[node][sock]
	}
	return f.nic[node]
}

// Send simulates a point-to-point message of size bytes from rank src to
// rank dst, calling onDone at completion. The protocol factor scales the
// effective bandwidth on every traversed resource; host latency plus the
// route latency elapse before the fluid phase.
func (f *Fabric) Send(name string, src, dst int, bytes float64, onDone func()) {
	if src == dst {
		f.ps.Engine.After(0, onDone)
		return
	}
	f.start(f.pathBetween(f.paths, src, dst), name, bytes, f.cfg.Protocol.band(bytes), onDone)
}

// start sends a message of the given protocol band down a path.
func (f *Fabric) start(p *path, name string, bytes float64, band int, onDone func()) {
	if p.gen != f.gen {
		p.gen = f.gen
		p.latency = f.cfg.HostLatency
		if p.route != nil {
			p.latency += p.route.Latency()
		}
		for b, usage := range p.usage {
			for i := range usage {
				usage[i].Weight = f.weight[b]
			}
		}
	}
	usage := p.usage[band]
	if usage == nil && len(p.res) > 0 {
		usage = make([]flow.Usage, len(p.res))
		for i, r := range p.res {
			usage[i] = flow.Usage{Res: r, Weight: f.weight[band]}
		}
		p.usage[band] = usage
	}
	if p.latency > 0 {
		f.deferStart(p.latency, deferred{name, bytes, usage, onDone})
		return
	}
	f.ps.System.StartActivity(name, bytes, 0, usage, onDone)
}

// deferred is a message waiting out its latency.
type deferred struct {
	name   string
	bytes  float64
	usage  []flow.Usage
	onDone func()
}

// bucket collects the messages whose fluid phase starts at one
// timestamp. Its two callbacks are bound once, so a recycled bucket costs
// no allocation.
type bucket struct {
	f        *Fabric
	t        float64
	msgs     []deferred
	fire     func() // b.run: the engine event
	startAll func() // b.start: the batch body
}

// deferStart coalesces all starts that land on the same timestamp into
// one batched rate recomputation — crucial when hundreds of ranks begin
// an exchange round simultaneously. The timestamp's engine event is
// created by its first message.
func (f *Fabric) deferStart(delay float64, m deferred) {
	t := f.ps.Engine.Now() + delay
	b := f.pending[t]
	if b == nil {
		if n := len(f.free); n > 0 {
			b, f.free = f.free[n-1], f.free[:n-1]
		} else {
			b = &bucket{f: f}
			b.fire, b.startAll = b.run, b.start
			f.buckets = append(f.buckets, b)
		}
		b.t = t
		b.msgs = b.msgs[:0]
		f.pending[t] = b
		f.ps.Engine.At(t, b.fire)
	}
	b.msgs = append(b.msgs, m)
}

func (b *bucket) run() {
	f := b.f
	delete(f.pending, b.t)
	f.ps.System.Batch(b.startAll)
	f.free = append(f.free, b)
}

func (b *bucket) start() {
	sys := b.f.ps.System
	for i := range b.msgs {
		m := &b.msgs[i]
		sys.StartActivity(m.name, m.bytes, 0, m.usage, m.onDone)
	}
}
