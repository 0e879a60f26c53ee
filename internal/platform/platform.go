// Package platform models simulated hardware: hosts with multicore CPUs,
// network links with bandwidth and latency, disks with bandwidth and
// concurrency limits, and routed topologies. It provides the building
// blocks that the workflow simulator (case study #1) and the MPI
// simulator (case study #2) assemble at their various levels of detail.
package platform

import (
	"fmt"
	"math"

	"simcal/internal/des"
	"simcal/internal/flow"
)

// Host is a compute node with a number of identical cores. Its CPU is a
// fluid resource of capacity Cores×Speed; a single task is additionally
// bounded by Speed (one core), so oversubscription degrades gracefully
// into time-sharing. A host belongs to at most one platform.
type Host struct {
	Name  string
	Cores int
	Speed float64 // ops/s per core
	CPU   *flow.Resource
	Disk  *Disk // nil when the host has no storage

	usage []flow.Usage // {CPU, 1}, built by the first Execute and shared by all
	ord   uint64       // 1 + position in its platform's Hosts; 0 before AddHost
}

// NewHost creates a host with cores identical cores of the given speed.
func NewHost(name string, cores int, speed float64) *Host {
	h := &Host{Name: name, CPU: &flow.Resource{Name: name + ":cpu"}}
	h.Configure(cores, speed)
	return h
}

// Configure changes the host's core count and per-core speed, under
// NewHost's validity rules. Like the other Configure methods it is for
// re-parameterizing a platform between simulations.
func (h *Host) Configure(cores int, speed float64) {
	if cores <= 0 || speed <= 0 {
		panic(fmt.Sprintf("platform: invalid host %q (%d cores, speed %g)", h.Name, cores, speed))
	}
	h.Cores, h.Speed = cores, speed
	h.CPU.SetCapacity(float64(cores) * speed)
}

// Execute runs work ops of single-core computation on the host and calls
// onDone at completion. The task shares the host CPU with other tasks
// under max-min fairness, capped at one core's speed.
func (h *Host) Execute(sys *flow.System, name string, work float64, onDone func()) *flow.Activity {
	if h.usage == nil {
		h.usage = []flow.Usage{{Res: h.CPU, Weight: 1}}
	}
	return sys.StartActivity(name, work, h.Speed, h.usage, onDone)
}

// Link is a network link with a shared-bandwidth fluid resource and a
// fixed latency applied once per transfer traversing it.
type Link struct {
	Name      string
	Bandwidth float64 // bytes/s
	Latency   float64 // seconds
	Res       *flow.Resource
}

// NewLink creates a link. Bandwidth must be positive; latency must be
// non-negative.
func NewLink(name string, bandwidth, latency float64) *Link {
	l := newLink(name)
	l.Configure(bandwidth, latency)
	return l
}

// newLink returns a link that still has to be Configured.
func newLink(name string) *Link {
	return &Link{Name: name, Res: &flow.Resource{Name: name}}
}

// Configure changes the link's bandwidth and latency, under NewLink's
// validity rules.
func (l *Link) Configure(bandwidth, latency float64) {
	if bandwidth <= 0 || latency < 0 || math.IsNaN(bandwidth) || math.IsNaN(latency) {
		panic(fmt.Sprintf("platform: invalid link %q (bw %g, lat %g)", l.Name, bandwidth, latency))
	}
	l.Bandwidth, l.Latency = bandwidth, latency
	l.Res.SetCapacity(bandwidth)
}

// Route is an ordered sequence of links between two hosts.
type Route []*Link

// Latency returns the total latency along the route.
func (r Route) Latency() float64 {
	s := 0.0
	for _, l := range r {
		s += l.Latency
	}
	return s
}

// Platform is a set of hosts plus symmetric routes between host pairs.
// Routes are either registered explicitly with AddRoute or computed on
// demand by RouteFunc (set by topology builders for large topologies) and
// cached. A transfer finds its pair's route and usages by the two hosts'
// ordinals, so it hashes one integer, not two names.
type Platform struct {
	Hosts []*Host
	Links []*Link
	// RouteFunc, when non-nil, computes the route between two hosts that
	// have no explicit route. The result is cached for both directions, so
	// whichever direction of a pair is asked for first decides the link
	// order the two share — until Sim.Reset forgets it.
	RouteFunc func(a, b *Host) Route
	routes    map[[2]string]Route // explicit
	computed  map[[2]string]Route // RouteFunc results
	byName    map[string]*Host

	xferRoutes map[uint64]*xferRoute // host pairs that have carried a Transfer, by pairKey
	xferFree   []*transfer           // latency-phase records awaiting reuse
}

// xferRoute is a route together with the fluid usages of a transfer over
// it, shared by every such transfer: usages name resources, not
// capacities, so they survive reconfiguration.
type xferRoute struct {
	links Route
	usage []flow.Usage
}

// New returns an empty platform.
func New() *Platform {
	return &Platform{routes: make(map[[2]string]Route), byName: make(map[string]*Host)}
}

// AddHost registers a host and gives it its ordinal. Duplicate names,
// and a host already added to a platform, panic.
func (p *Platform) AddHost(h *Host) *Host {
	if _, dup := p.byName[h.Name]; dup {
		panic("platform: duplicate host " + h.Name)
	}
	if h.ord != 0 {
		panic("platform: host " + h.Name + " already belongs to a platform")
	}
	p.Hosts = append(p.Hosts, h)
	p.byName[h.Name] = h
	h.ord = uint64(len(p.Hosts))
	return h
}

// AddLink registers a link so it appears in the platform inventory.
func (p *Platform) AddLink(l *Link) *Link {
	p.Links = append(p.Links, l)
	return l
}

// HostByName returns the host with the given name, or nil.
func (p *Platform) HostByName(name string) *Host { return p.byName[name] }

// AddRoute installs a symmetric route between hosts a and b.
func (p *Platform) AddRoute(a, b *Host, links ...*Link) {
	p.routes[[2]string{a.Name, b.Name}] = links
	p.routes[[2]string{b.Name, a.Name}] = links
	delete(p.xferRoutes, pairKey(a, b))
	delete(p.xferRoutes, pairKey(b, a))
}

// RouteBetween returns the route between two hosts. It panics when no
// route exists — a missing route is a topology construction bug.
func (p *Platform) RouteBetween(a, b *Host) Route {
	if r, ok := p.routes[[2]string{a.Name, b.Name}]; ok {
		return r
	}
	if r, ok := p.computed[[2]string{a.Name, b.Name}]; ok {
		return r
	}
	if p.RouteFunc != nil {
		r := p.RouteFunc(a, b)
		if r != nil {
			if p.computed == nil {
				p.computed = make(map[[2]string]Route)
			}
			p.computed[[2]string{a.Name, b.Name}] = r
			p.computed[[2]string{b.Name, a.Name}] = r
			return r
		}
	}
	panic(fmt.Sprintf("platform: no route between %q and %q", a.Name, b.Name))
}

// forgetComputedRoutes drops the routes RouteFunc computed, and the
// transfer usages that may have been built over them.
func (p *Platform) forgetComputedRoutes() {
	if len(p.computed) > 0 {
		clear(p.computed)
		clear(p.xferRoutes)
	}
}

// pairKey is the transfer-route key of the ordered pair (a, b).
func pairKey(a, b *Host) uint64 { return a.ord<<32 | b.ord }

// xferRouteBetween returns the pair's route with its transfer usages,
// built on the pair's first transfer.
func (p *Platform) xferRouteBetween(a, b *Host) *xferRoute {
	if a.ord == 0 || b.ord == 0 {
		panic(fmt.Sprintf("platform: transfer between %q and %q: a host was never added with AddHost", a.Name, b.Name))
	}
	key := pairKey(a, b)
	if rt := p.xferRoutes[key]; rt != nil {
		return rt
	}
	rt := &xferRoute{links: p.RouteBetween(a, b)}
	rt.usage = make([]flow.Usage, len(rt.links))
	for i, l := range rt.links {
		rt.usage[i] = flow.Usage{Res: l.Res, Weight: 1}
	}
	if p.xferRoutes == nil {
		p.xferRoutes = make(map[uint64]*xferRoute)
	}
	p.xferRoutes[key] = rt
	return rt
}

// Transfer simulates sending size bytes from one host to another: the
// route's total latency elapses first, then a fluid transfer shares
// bandwidth on every link of the route. Transfers between a host and
// itself complete after an immediate event (local copies are modeled as
// free; disk costs are charged separately by storage services). The
// returned handle can be used to cancel a remote transfer before the
// fluid phase starts only via the engine; local semantics are immediate.
func (p *Platform) Transfer(sys *flow.System, name string, from, to *Host, size float64, onDone func()) {
	if from == to {
		sys.Engine().After(0, onDone)
		return
	}
	rt := p.xferRouteBetween(from, to)
	lat := rt.links.Latency()
	if lat <= 0 {
		sys.StartActivity(name, size, 0, rt.usage, onDone)
		return
	}
	var x *transfer
	if n := len(p.xferFree); n > 0 {
		x, p.xferFree = p.xferFree[n-1], p.xferFree[:n-1]
	} else {
		x = &transfer{p: p}
		x.start = x.begin
	}
	x.sys, x.name, x.size, x.usage, x.onDone = sys, name, size, rt.usage, onDone
	sys.Engine().After(lat, x.start)
}

// transfer is a remote transfer waiting out its route latency. Records
// are recycled as soon as the fluid phase starts, each carrying its own
// start callback (bound once), so a transfer costs no allocation.
type transfer struct {
	p      *Platform
	sys    *flow.System
	name   string
	size   float64
	usage  []flow.Usage
	onDone func()
	start  func() // x.begin
}

func (x *transfer) begin() {
	sys, name, size, usage, onDone := x.sys, x.name, x.size, x.usage, x.onDone
	x.sys, x.usage, x.onDone = nil, nil, nil
	x.p.xferFree = append(x.p.xferFree, x)
	sys.StartActivity(name, size, 0, usage, onDone)
}

// Disk models node-attached storage: a shared-bandwidth fluid resource
// plus a cap on the number of concurrent I/O operations. Operations
// beyond the cap queue in FIFO order — this is the "maximum number of
// concurrent I/O operations at a disk" parameter the paper calibrates.
type Disk struct {
	Name          string
	Bandwidth     float64 // bytes/s, shared by reads and writes
	MaxConcurrent int     // 0 = unlimited
	Res           *flow.Resource

	inFlight int
	queue    []*diskOp // FIFO; queue[head:] are waiting
	head     int
	usage    []flow.Usage // {Res, 1}, built by the first operation and shared by all
	free     []*diskOp
}

// diskOp is one I/O operation, queued or in flight. Records are recycled
// when their operation completes, each carrying its own completion
// callback (bound once), so an operation costs no allocation.
type diskOp struct {
	d      *Disk
	sys    *flow.System
	name   string
	size   float64
	onDone func()
	done   func() // op.finish
}

// NewDisk creates a disk with the given bandwidth and concurrency cap.
func NewDisk(name string, bandwidth float64, maxConcurrent int) *Disk {
	d := &Disk{Name: name, Res: &flow.Resource{Name: name}}
	d.Configure(bandwidth, maxConcurrent)
	return d
}

// Configure changes the disk's bandwidth and concurrency cap, under
// NewDisk's validity rules.
func (d *Disk) Configure(bandwidth float64, maxConcurrent int) {
	if bandwidth <= 0 || maxConcurrent < 0 {
		panic(fmt.Sprintf("platform: invalid disk %q (bw %g, cap %d)", d.Name, bandwidth, maxConcurrent))
	}
	d.Bandwidth, d.MaxConcurrent = bandwidth, maxConcurrent
	d.Res.SetCapacity(bandwidth)
}

// InFlight returns the number of I/O operations currently progressing.
func (d *Disk) InFlight() int { return d.inFlight }

// Queued returns the number of I/O operations waiting for a slot.
func (d *Disk) Queued() int { return len(d.queue) - d.head }

// IO performs a size-byte read or write (both share the disk bandwidth)
// and calls onDone when it completes. Zero-size operations still pass
// through the concurrency gate, preserving ordering.
func (d *Disk) IO(sys *flow.System, name string, size float64, onDone func()) {
	var op *diskOp
	if n := len(d.free); n > 0 {
		op, d.free = d.free[n-1], d.free[:n-1]
	} else {
		op = &diskOp{d: d}
		op.done = op.finish
	}
	op.sys, op.name, op.size, op.onDone = sys, name, size, onDone
	if d.MaxConcurrent > 0 && d.inFlight >= d.MaxConcurrent {
		d.queue = append(d.queue, op)
		return
	}
	d.start(op)
}

func (d *Disk) start(op *diskOp) {
	if d.usage == nil {
		d.usage = []flow.Usage{{Res: d.Res, Weight: 1}}
	}
	d.inFlight++
	op.sys.StartActivity(op.name, op.size, 0, d.usage, op.done)
}

// finish releases the operation's slot to the next queued operation,
// then reports completion.
func (op *diskOp) finish() {
	d, onDone := op.d, op.onDone
	op.sys, op.onDone = nil, nil
	d.free = append(d.free, op)
	d.inFlight--
	if d.head < len(d.queue) {
		next := d.queue[d.head]
		d.queue[d.head] = nil
		d.head++
		if d.head == len(d.queue) {
			d.queue, d.head = d.queue[:0], 0
		}
		d.start(next)
	}
	if onDone != nil {
		onDone()
	}
}

// reset drops every queued and in-flight operation (the activities
// themselves die with the flow system's Reset).
func (d *Disk) reset() {
	for i := d.head; i < len(d.queue); i++ {
		d.free = append(d.free, d.queue[i])
		d.queue[i] = nil
	}
	d.queue, d.head, d.inFlight = d.queue[:0], 0, 0
}

// Sim bundles an engine, a fluid system, and a platform — the common
// harness every simulator in this repository builds on.
type Sim struct {
	Engine   *des.Engine
	System   *flow.System
	Platform *Platform
}

// NewSim returns a fresh engine/system pair wrapped around p.
func NewSim(p *Platform) *Sim {
	eng := des.NewEngine()
	return &Sim{Engine: eng, System: flow.NewSystem(eng), Platform: p}
}

// Reset prepares the harness for another simulation on the same
// platform: the engine and flow system return to their freshly built
// state (see des.Engine.Reset and flow.System.Reset for what that
// guarantees) and every disk forgets its in-flight and queued
// operations, and routes computed on demand are forgotten, so that they
// are derived again from the directions this simulation asks for first,
// as on a fresh platform. Hosts, links, explicit routes and all capacities
// are untouched — reconfigure them with the Configure methods. Event and
// activity handles from before the Reset are invalid.
func (s *Sim) Reset() {
	s.Engine.Reset()
	s.System.Reset()
	s.Platform.forgetComputedRoutes()
	for _, h := range s.Platform.Hosts {
		if h.Disk != nil {
			h.Disk.reset()
		}
	}
}
