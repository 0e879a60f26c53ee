package platform

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// scenario runs a small storage + network workload on sim and returns
// every completion time: four reads through a 2-slot disk, each followed
// by a transfer with latency, each followed by a computation.
func scenario(t *testing.T, sim *Sim, a, b *Host) []float64 {
	t.Helper()
	var times []float64
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d", i)
		a.Disk.IO(sim.System, name+":read", 100, func() {
			sim.Platform.Transfer(sim.System, name+":xfer", a, b, 50, func() {
				b.Execute(sim.System, name+":compute", 30, func() { times = append(times, sim.Engine.Now()) })
			})
		})
	}
	mustRun(t, sim)
	return times
}

func buildPair(diskBW float64, conc int, linkBW, lat, speed float64) (*Sim, *Host, *Host) {
	p := New()
	a := p.AddHost(NewHost("a", 1, 1))
	b := p.AddHost(NewHost("b", 2, speed))
	a.Disk = NewDisk("a:disk", diskBW, conc)
	SharedLinkTopology(p, p.Hosts, NewLink("l", linkBW, lat))
	return NewSim(p), a, b
}

// TestSimResetAndConfigureEqualFresh: a Sim interrupted with operations
// queued at a disk and transfers waiting out their latency, then Reset
// and reconfigured, behaves bit for bit like a platform built with the
// new parameters.
func TestSimResetAndConfigureEqualFresh(t *testing.T) {
	sim, a, b := buildPair(100, 2, 40, 0.25, 10)
	for i := 0; i < 6; i++ {
		a.Disk.IO(sim.System, "junk", 100, func() {
			sim.Platform.Transfer(sim.System, "junk:xfer", a, b, 1000, func() {})
		})
	}
	if _, err := sim.Engine.Run(2); err == nil {
		t.Fatal("setup: the interrupted run finished")
	}
	if a.Disk.InFlight() == 0 || a.Disk.Queued() == 0 {
		t.Fatalf("setup: disk idle at the interruption (in flight %d, queued %d)", a.Disk.InFlight(), a.Disk.Queued())
	}
	sim.Reset()
	if a.Disk.InFlight() != 0 || a.Disk.Queued() != 0 || sim.System.ActiveCount() != 0 || sim.Engine.Pending() != 0 {
		t.Fatal("Reset left operations behind")
	}
	a.Disk.Configure(250, 3)
	b.Configure(4, 7)
	sim.Platform.Links[0].Configure(90, 0.5)
	reused := scenario(t, sim, a, b)

	freshSim, fa, fb := buildPair(250, 3, 90, 0.5, 7)
	fb.Configure(4, 7)
	fresh := scenario(t, freshSim, fa, fb)
	if len(reused) != 4 || len(fresh) != 4 {
		t.Fatalf("completed %d (reused) and %d (fresh) of 4", len(reused), len(fresh))
	}
	for i := range fresh {
		if math.Float64bits(reused[i]) != math.Float64bits(fresh[i]) {
			t.Errorf("completion %d at %v (reused) vs %v (fresh)", i, reused[i], fresh[i])
		}
	}
}

// TestStorageAndTransferRecordsAreRecycled: disk operations and
// latency-phase transfers reuse their records (and bound callbacks), so
// a warmed platform moves data without allocating.
func TestStorageAndTransferRecordsAreRecycled(t *testing.T) {
	sim, a, b := buildPair(100, 2, 40, 0.25, 10)
	done := func() {}
	var afterRead [8]func()
	for i := range afterRead {
		afterRead[i] = func() { sim.Platform.Transfer(sim.System, "x", a, b, 50, done) }
	}
	run := func() {
		sim.Reset()
		for _, fn := range afterRead {
			a.Disk.IO(sim.System, "r", 100, fn)
		}
		mustRun(t, sim)
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("warmed disk + transfer path allocates %v times per run, want 0", allocs)
	}
}

func TestInvalidConfigurePanics(t *testing.T) {
	cases := []func(){
		func() { NewHost("h", 1, 1).Configure(0, 1) },
		func() { NewHost("h", 1, 1).Configure(1, math.NaN()) },
		func() { NewLink("l", 1, 0).Configure(0, 0) },
		func() { NewLink("l", 1, 0).Configure(1, math.NaN()) },
		func() { NewDisk("d", 1, 0).Configure(1, -1) },
		func() { NewDisk("d", 1, 0).Configure(math.NaN(), 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func namedHosts(n int) (*Platform, []*Host) {
	p := New()
	hosts := make([]*Host, n)
	for i := range hosts {
		hosts[i] = p.AddHost(NewHost(fmt.Sprintf("h%d", i), 1, 1))
	}
	return p, hosts
}

// TestTopologyConfigureEqualsFreshBuild: reconfiguring a tree or fat
// tree gives every link exactly the bandwidth and latency a topology
// built from the new spec gives it.
func TestTopologyConfigureEqualsFreshBuild(t *testing.T) {
	sameLinks := func(label string, reused, fresh *Platform) {
		t.Helper()
		if len(reused.Links) != len(fresh.Links) {
			t.Fatalf("%s: %d links, fresh build has %d", label, len(reused.Links), len(fresh.Links))
		}
		for i, l := range reused.Links {
			f := fresh.Links[i]
			if l.Name != f.Name || math.Float64bits(l.Bandwidth) != math.Float64bits(f.Bandwidth) ||
				math.Float64bits(l.Latency) != math.Float64bits(f.Latency) || l.Res.Capacity != l.Bandwidth {
				t.Errorf("%s: link %s is (%v, %v, capacity %v), fresh %s is (%v, %v)",
					label, l.Name, l.Bandwidth, l.Latency, l.Res.Capacity, f.Name, f.Bandwidth, f.Latency)
			}
		}
	}

	treeA := TreeSpec{Arity: 4, LeafBandwidth: 1}
	treeB := TreeSpec{Arity: 4, LeafBandwidth: 12.5e9 / 3, Latency: 1e-6, LevelMultipliers: []float64{1, 3.7}}
	p, hosts := namedHosts(21)
	TreeTopology(p, hosts, treeA).Configure(treeB)
	fresh, freshHosts := namedHosts(21)
	TreeTopology(fresh, freshHosts, treeB)
	sameLinks("tree", p, fresh)

	fatA := FatTreeSpec{GroupSize: 3, NodeBandwidth: 1}
	fatB := FatTreeSpec{GroupSize: 3, NodeBandwidth: 12.5e9 / 7, Latency: 2e-6, UplinkOversubscription: 1.3}
	p, hosts = namedHosts(40)
	FatTreeTopology(p, hosts, fatA).Configure(fatB)
	fresh, freshHosts = namedHosts(40)
	FatTreeTopology(fresh, freshHosts, fatB)
	sameLinks("fat tree", p, fresh)

	for i, bad := range []func(){
		func() { TreeTopology(p, hosts, treeA).Configure(TreeSpec{Arity: 2, LeafBandwidth: 1}) },
		func() { TreeTopology(p, hosts, treeA).Configure(TreeSpec{Arity: 4}) },
		func() { FatTreeTopology(p, hosts, fatA).Configure(FatTreeSpec{GroupSize: 4, NodeBandwidth: 1}) },
		func() { FatTreeTopology(p, hosts, fatA).Configure(FatTreeSpec{GroupSize: 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad reconfiguration %d did not panic", i)
				}
			}()
			bad()
		}()
	}
}

// TestSimResetForgetsComputedRoutes: a computed route serves both
// directions of its pair in the link order of the direction asked for
// first. A reset platform must give the next simulation the order a
// fresh platform would, not the previous simulation's; explicit routes
// stay.
func TestSimResetForgetsComputedRoutes(t *testing.T) {
	p, hosts := namedHosts(3)
	bb := NewLink("bb", 1, 0)
	ups := []*Link{NewLink("u0", 1, 0), NewLink("u1", 1, 0), NewLink("u2", 1, 0)}
	BackboneTopology(p, hosts, bb, ups)
	explicit := NewLink("x", 1, 0)
	p.AddRoute(hosts[0], hosts[2], explicit)
	sim := NewSim(p)

	if r := p.RouteBetween(hosts[0], hosts[1]); r[0] != ups[0] || r[2] != ups[1] {
		t.Fatalf("route 0→1 = %v", r)
	}
	if r := p.RouteBetween(hosts[1], hosts[0]); r[0] != ups[0] {
		t.Fatal("the pair's second direction did not share the first one's route")
	}
	sim.Reset()
	if r := p.RouteBetween(hosts[1], hosts[0]); r[0] != ups[1] || r[2] != ups[0] {
		t.Errorf("after Reset, route 1→0 = %v, want it derived afresh", r)
	}
	if r := p.RouteBetween(hosts[2], hosts[0]); len(r) != 1 || r[0] != explicit {
		t.Errorf("after Reset, explicit route 2→0 = %v", r)
	}
}

// TestAddRouteAfterTransferRederivesUsages: a pair that has carried a
// transfer, in either direction, moves its next transfer over the route
// AddRoute installs afterwards.
func TestAddRouteAfterTransferRederivesUsages(t *testing.T) {
	p, hosts := namedHosts(2)
	fast, slow := NewLink("fast", 100, 0), NewLink("slow", 10, 0)
	p.AddRoute(hosts[0], hosts[1], fast)
	sim := NewSim(p)
	var done []float64
	record := func() { done = append(done, sim.Engine.Now()) }
	p.Transfer(sim.System, "x", hosts[0], hosts[1], 100, record)
	p.Transfer(sim.System, "y", hosts[1], hosts[0], 100, record)
	mustRun(t, sim)
	p.AddRoute(hosts[0], hosts[1], slow)
	p.Transfer(sim.System, "x", hosts[0], hosts[1], 100, record)
	mustRun(t, sim)
	p.Transfer(sim.System, "y", hosts[1], hosts[0], 100, record)
	mustRun(t, sim)
	if want := []float64{2, 2, 12, 22}; fmt.Sprint(done) != fmt.Sprint(want) {
		t.Errorf("completions at %v, want %v", done, want)
	}
}

// TestSimResetRederivesTransferUsages: transfers over a computed route
// use the links in the order of the direction asked for first, and after
// Sim.Reset that is the next simulation's first direction, not the
// previous one's — for the transfer usages as for the route.
func TestSimResetRederivesTransferUsages(t *testing.T) {
	p, hosts := namedHosts(2)
	bb := NewLink("bb", 1, 0)
	ups := []*Link{NewLink("u0", 1, 0), NewLink("u1", 1, 0)}
	BackboneTopology(p, hosts, bb, ups)
	sim := NewSim(p)
	firstRes := func(a, b *Host) string {
		p.Transfer(sim.System, "x", a, b, 1, nil)
		mustRun(t, sim)
		return p.xferRoutes[pairKey(a, b)].usage[0].Res.Name
	}
	if got := firstRes(hosts[0], hosts[1]) + firstRes(hosts[1], hosts[0]); got != "u0u0" {
		t.Fatalf("first links 0→1, 1→0 = %s, want u0u0", got)
	}
	sim.Reset()
	if got := firstRes(hosts[1], hosts[0]) + firstRes(hosts[0], hosts[1]); got != "u1u1" {
		t.Errorf("after Reset, first links 1→0, 0→1 = %s, want u1u1", got)
	}
}

// TestHostOutsideThePlatformPanics: a transfer from or to a host never
// passed to AddHost, and adding a host to a second platform, panic with
// a message that names the host.
func TestHostOutsideThePlatformPanics(t *testing.T) {
	p, hosts := namedHosts(1)
	stray := NewHost("stray", 1, 1)
	p.AddRoute(hosts[0], stray, NewLink("l", 1, 0))
	sim := NewSim(p)
	for _, c := range []struct {
		name string
		fn   func()
		want string
	}{
		{"to", func() { p.Transfer(sim.System, "x", hosts[0], stray, 1, nil) }, `"stray": a host was never added with AddHost`},
		{"from", func() { p.Transfer(sim.System, "x", stray, hosts[0], 1, nil) }, "a host was never added with AddHost"},
		{"second platform", func() { New().AddHost(hosts[0]) }, "host h0 already belongs to a platform"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want it to contain %q", c.name, msg, c.want)
				}
			}()
			c.fn()
		}()
	}
}
