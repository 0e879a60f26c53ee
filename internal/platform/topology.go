package platform

import (
	"fmt"
	"math"
)

// SharedLinkTopology routes every pair of the given hosts through a
// single shared link — the lowest level of network detail considered in
// the paper ("abstracting away the entire network as a single shared
// macro link").
func SharedLinkTopology(p *Platform, hosts []*Host, link *Link) {
	p.AddLink(link)
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			p.AddRoute(hosts[i], hosts[j], link)
		}
	}
}

// StarTopology connects a center host to each leaf through a dedicated
// link; leaf-to-leaf routes traverse both dedicated links. links[i] is
// the dedicated link of leaves[i].
func StarTopology(p *Platform, center *Host, leaves []*Host, links []*Link) {
	if len(leaves) != len(links) {
		panic("platform: StarTopology needs one link per leaf")
	}
	for i, leaf := range leaves {
		p.AddLink(links[i])
		p.AddRoute(center, leaf, links[i])
	}
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			p.AddRoute(leaves[i], leaves[j], links[i], links[j])
		}
	}
}

// SeriesTopology connects a center host through one shared link in
// series with a dedicated link per leaf: center↔leaf crosses
// {shared, dedicated[i]}. This is the paper's third workflow network
// option — higher dimensionality without necessarily more accuracy.
func SeriesTopology(p *Platform, center *Host, leaves []*Host, shared *Link, dedicated []*Link) {
	if len(leaves) != len(dedicated) {
		panic("platform: SeriesTopology needs one dedicated link per leaf")
	}
	p.AddLink(shared)
	for i, leaf := range leaves {
		p.AddLink(dedicated[i])
		p.AddRoute(center, leaf, shared, dedicated[i])
	}
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			p.AddRoute(leaves[i], leaves[j], dedicated[i], dedicated[j])
		}
	}
}

// BackboneTopology gives every host a dedicated uplink to a shared
// backbone link: host_i↔host_j crosses {up_i, backbone, up_j}.
// uplinks[i] belongs to hosts[i].
func BackboneTopology(p *Platform, hosts []*Host, backbone *Link, uplinks []*Link) {
	if len(hosts) != len(uplinks) {
		panic("platform: BackboneTopology needs one uplink per host")
	}
	p.AddLink(backbone)
	for _, l := range uplinks {
		p.AddLink(l)
	}
	p.RouteFunc = func(a, b *Host) Route {
		ia, ib := hostIndex(hosts, a), hostIndex(hosts, b)
		if ia < 0 || ib < 0 {
			return nil
		}
		return Route{uplinks[ia], backbone, uplinks[ib]}
	}
}

// TreeSpec parameterizes a k-ary tree (or fat-tree) topology.
type TreeSpec struct {
	// Arity is the number of children per switch (k).
	Arity int
	// LeafBandwidth is the bandwidth of the host-to-first-switch links,
	// in bytes/s.
	LeafBandwidth float64
	// Latency is the per-link latency in seconds.
	Latency float64
	// LevelMultipliers scales the bandwidth of uplinks at each switch
	// level relative to LeafBandwidth. A classic thin tree uses all 1s; a
	// non-blocking fat tree multiplies by the subtree size. Missing
	// levels default to 1.
	LevelMultipliers []float64
}

// uplinkBandwidth is the bandwidth the spec gives an uplink at the given
// switch level.
func (spec TreeSpec) uplinkBandwidth(level int) float64 {
	mult := 1.0
	if level < len(spec.LevelMultipliers) {
		mult = spec.LevelMultipliers[level]
	}
	if mult <= 0 {
		panic("platform: tree level multiplier must be positive")
	}
	return spec.LeafBandwidth * mult
}

// Tree is the link set of a topology built by TreeTopology.
type Tree struct {
	arity int
	// uplinks[l][g] is the uplink from group g at level l toward level
	// l+1. Level 0 groups are the hosts themselves.
	uplinks [][]*Link
}

// Configure re-parameterizes the tree's links from spec, under
// TreeTopology's validity rules: every link ends up with the bandwidth
// and latency a tree freshly built from spec would give it. The arity is
// structural and cannot change.
func (t *Tree) Configure(spec TreeSpec) {
	if spec.Arity != t.arity {
		panic(fmt.Sprintf("platform: tree built with arity %d configured with arity %d", t.arity, spec.Arity))
	}
	if spec.LeafBandwidth <= 0 {
		panic("platform: tree leaf bandwidth must be positive")
	}
	for l, level := range t.uplinks {
		bw := spec.uplinkBandwidth(l)
		for _, link := range level {
			link.Configure(bw, spec.Latency)
		}
	}
}

// TreeTopology wires hosts as the leaves of a k-ary tree of switches and
// installs a lazy route function. The route between two leaves climbs
// uplinks to the lowest common ancestor and descends to the destination.
// The returned Tree reconfigures the links it created.
func TreeTopology(p *Platform, hosts []*Host, spec TreeSpec) *Tree {
	if spec.Arity < 2 {
		panic("platform: tree arity must be >= 2")
	}
	n := len(hosts)
	if n < 2 {
		panic("platform: tree needs at least 2 hosts")
	}
	levels := 1
	for pow := spec.Arity; pow < n; pow *= spec.Arity {
		levels++
	}
	t := &Tree{arity: spec.Arity, uplinks: make([][]*Link, levels)}
	uplinks := t.uplinks
	groups := n
	for l := 0; l < levels; l++ {
		uplinks[l] = make([]*Link, groups)
		for g := 0; g < groups; g++ {
			uplinks[l][g] = p.AddLink(newLink(fmt.Sprintf("tree-l%d-g%d", l, g)))
		}
		groups = (groups + spec.Arity - 1) / spec.Arity // parents at level l+1
	}
	t.Configure(spec)
	p.RouteFunc = func(a, b *Host) Route {
		ia, ib := hostIndex(hosts, a), hostIndex(hosts, b)
		if ia < 0 || ib < 0 {
			return nil
		}
		var up, down Route
		ga, gb := ia, ib
		for l := 0; l < levels && ga != gb; l++ {
			up = append(up, uplinks[l][ga])
			down = append(down, uplinks[l][gb])
			ga /= spec.Arity
			gb /= spec.Arity
		}
		for i := len(down) - 1; i >= 0; i-- {
			up = append(up, down[i])
		}
		return up
	}
	return t
}

// FatTreeSpec parameterizes a Summit-like three-level fat tree: hosts
// grouped under level-1 switches, aggregated uplinks to level 2 and
// level 3.
type FatTreeSpec struct {
	// GroupSize is the number of hosts per level-1 switch (18 on Summit).
	GroupSize int
	// NodeBandwidth is the host NIC-to-switch bandwidth in bytes/s.
	NodeBandwidth float64
	// Latency is the per-link latency in seconds.
	Latency float64
	// UplinkOversubscription divides the aggregated uplink capacity; 1
	// models a non-blocking fabric like Summit's.
	UplinkOversubscription float64
}

// FatTree is the link set of a topology built by FatTreeTopology.
type FatTree struct {
	groupSize, l2GroupSize int
	nodeLinks, l1Up, l2Up  []*Link
}

// Configure re-parameterizes the fat tree's links from spec, under
// FatTreeTopology's validity rules: every link ends up with the
// bandwidth and latency a fat tree freshly built from spec would give
// it. Uplinks are aggregated: the level-1→2 uplink of a group carries
// GroupSize×NodeBandwidth/oversubscription, mirroring the non-blocking
// property of Summit's interconnect at flow-level granularity. The group
// size is structural and cannot change.
func (t *FatTree) Configure(spec FatTreeSpec) {
	if spec.GroupSize != t.groupSize {
		panic(fmt.Sprintf("platform: fat tree built with group size %d configured with group size %d", t.groupSize, spec.GroupSize))
	}
	if spec.NodeBandwidth <= 0 {
		panic("platform: invalid fat-tree spec")
	}
	over := spec.UplinkOversubscription
	if over <= 0 {
		over = 1
	}
	for _, link := range t.nodeLinks {
		link.Configure(spec.NodeBandwidth, spec.Latency)
	}
	l1 := float64(spec.GroupSize) * spec.NodeBandwidth / over
	for _, link := range t.l1Up {
		link.Configure(l1, spec.Latency)
	}
	l2 := float64(t.l2GroupSize*spec.GroupSize) * spec.NodeBandwidth / over
	for _, link := range t.l2Up {
		link.Configure(l2, spec.Latency)
	}
}

// FatTreeTopology builds a three-level fat tree over hosts and installs
// a lazy route function. The returned FatTree reconfigures the links it
// created.
func FatTreeTopology(p *Platform, hosts []*Host, spec FatTreeSpec) *FatTree {
	if spec.GroupSize < 1 {
		panic("platform: invalid fat-tree spec")
	}
	n := len(hosts)
	nGroups := (n + spec.GroupSize - 1) / spec.GroupSize
	l2GroupSize := int(math.Ceil(math.Sqrt(float64(nGroups))))
	if l2GroupSize < 1 {
		l2GroupSize = 1
	}
	nPods := (nGroups + l2GroupSize - 1) / l2GroupSize

	links := func(format string, count int) []*Link {
		out := make([]*Link, count)
		for i := range out {
			out[i] = p.AddLink(newLink(fmt.Sprintf(format, i)))
		}
		return out
	}
	t := &FatTree{groupSize: spec.GroupSize, l2GroupSize: l2GroupSize}
	t.nodeLinks = links("ft-node-%d", n)
	t.l1Up = links("ft-l1up-%d", nGroups)
	t.l2Up = links("ft-l2up-%d", nPods)
	t.Configure(spec)
	nodeLinks, l1Up, l2Up := t.nodeLinks, t.l1Up, t.l2Up

	p.RouteFunc = func(a, b *Host) Route {
		ia, ib := hostIndex(hosts, a), hostIndex(hosts, b)
		if ia < 0 || ib < 0 {
			return nil
		}
		ga, gb := ia/spec.GroupSize, ib/spec.GroupSize
		if ga == gb {
			return Route{nodeLinks[ia], nodeLinks[ib]}
		}
		qa, qb := ga/l2GroupSize, gb/l2GroupSize
		if qa == qb {
			return Route{nodeLinks[ia], l1Up[ga], l1Up[gb], nodeLinks[ib]}
		}
		return Route{nodeLinks[ia], l1Up[ga], l2Up[qa], l2Up[qb], l1Up[gb], nodeLinks[ib]}
	}
	return t
}

// DragonflySpec parameterizes a dragonfly topology (the Cray/Slingshot
// interconnect family): hosts attach to routers, routers form
// all-to-all-connected groups, and groups connect through global links.
// Minimal routing is modeled: host → router → (local hop) → (global hop)
// → (local hop) → router → host.
type DragonflySpec struct {
	// HostsPerRouter is the number of hosts per router.
	HostsPerRouter int
	// RoutersPerGroup is the number of routers per group.
	RoutersPerGroup int
	// HostBandwidth is the host-to-router link bandwidth (bytes/s).
	HostBandwidth float64
	// LocalBandwidth is the intra-group router-to-router bandwidth.
	LocalBandwidth float64
	// GlobalBandwidth is the inter-group link bandwidth.
	GlobalBandwidth float64
	// Latency is the per-link latency (seconds).
	Latency float64
}

// DragonflyTopology wires hosts as a dragonfly and installs a lazy route
// function. Local links are modeled per ordered router pair within a
// group and global links per ordered group pair, aggregated — the same
// flow-level granularity as the fat-tree builder.
func DragonflyTopology(p *Platform, hosts []*Host, spec DragonflySpec) {
	if spec.HostsPerRouter < 1 || spec.RoutersPerGroup < 1 {
		panic("platform: invalid dragonfly group shape")
	}
	if spec.HostBandwidth <= 0 || spec.LocalBandwidth <= 0 || spec.GlobalBandwidth <= 0 {
		panic("platform: dragonfly bandwidths must be positive")
	}
	n := len(hosts)
	if n < 2 {
		panic("platform: dragonfly needs at least 2 hosts")
	}
	hostLinks := make([]*Link, n)
	for i := range hosts {
		hostLinks[i] = p.AddLink(NewLink(fmt.Sprintf("df-host-%d", i), spec.HostBandwidth, spec.Latency))
	}
	// localLinks[r1][r2] created lazily per ordered pair (r1 < r2).
	localLinks := make(map[[2]int]*Link)
	localLink := func(a, b int) *Link {
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if l, ok := localLinks[key]; ok {
			return l
		}
		l := p.AddLink(NewLink(fmt.Sprintf("df-local-%d-%d", a, b), spec.LocalBandwidth, spec.Latency))
		localLinks[key] = l
		return l
	}
	globalLinks := make(map[[2]int]*Link)
	globalLink := func(a, b int) *Link {
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if l, ok := globalLinks[key]; ok {
			return l
		}
		l := p.AddLink(NewLink(fmt.Sprintf("df-global-%d-%d", a, b), spec.GlobalBandwidth, spec.Latency))
		globalLinks[key] = l
		return l
	}
	routerOf := func(hostIdx int) int { return hostIdx / spec.HostsPerRouter }
	groupOf := func(routerIdx int) int { return routerIdx / spec.RoutersPerGroup }
	// gatewayRouter returns the router of group g that holds the global
	// link toward group h (spread deterministically across the group).
	gatewayRouter := func(g, h int) int {
		return g*spec.RoutersPerGroup + (h % spec.RoutersPerGroup)
	}

	p.RouteFunc = func(a, b *Host) Route {
		ia, ib := hostIndex(hosts, a), hostIndex(hosts, b)
		if ia < 0 || ib < 0 {
			return nil
		}
		ra, rb := routerOf(ia), routerOf(ib)
		ga, gb := groupOf(ra), groupOf(rb)
		route := Route{hostLinks[ia]}
		switch {
		case ra == rb:
			// Same router: host links only.
		case ga == gb:
			route = append(route, localLink(ra, rb))
		default:
			// Minimal route: local hop to the gateway, global hop,
			// local hop from the remote gateway.
			gwA := gatewayRouter(ga, gb)
			gwB := gatewayRouter(gb, ga)
			if ra != gwA {
				route = append(route, localLink(ra, gwA))
			}
			route = append(route, globalLink(ga, gb))
			if gwB != rb {
				route = append(route, localLink(gwB, rb))
			}
		}
		return append(route, hostLinks[ib])
	}
}

// hostIndex returns the index of h in hosts, or -1. Topology builders
// capture small host slices, so a linear scan is fine; large topologies
// are indexed once per pair and cached by RouteBetween.
func hostIndex(hosts []*Host, h *Host) int {
	for i, x := range hosts {
		if x == h {
			return i
		}
	}
	return -1
}
