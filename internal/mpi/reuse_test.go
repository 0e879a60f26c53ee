package mpi

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"simcal/internal/platform"
)

// fatTreeFabric builds a fresh 8-node complex-node fabric over a fat
// tree with 3-node groups, so that routes of two, four and six links
// occur.
func fatTreeFabric(t *testing.T, bw, lat float64, cfg FabricConfig) (*Fabric, *platform.FatTree) {
	t.Helper()
	p := platform.New()
	hosts := make([]*platform.Host, 8)
	for i := range hosts {
		hosts[i] = p.AddHost(platform.NewHost(fmt.Sprintf("n%d", i), 6, 1e9))
	}
	spec := platform.FatTreeSpec{GroupSize: 3, NodeBandwidth: bw, Latency: lat}
	tree := platform.FatTreeTopology(p, hosts, spec)
	cfg.Nodes, cfg.NodeModel = len(hosts), ComplexNode
	f, err := NewFabric(platform.NewSim(p), hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, tree
}

// TestFabricReuseAfterAbortedRuns: a fabric whose run was cut off by the
// event bound — messages in flight, starts waiting in their buckets,
// chains between steps — or by a panicking completion callback gives, once
// reconfigured, the bits of a fresh fabric; so does every later run.
func TestFabricReuseAfterAbortedRuns(t *testing.T) {
	type run struct {
		bw, lat float64
		cfg     FabricConfig
		spec    RunSpec
	}
	var runs []run
	for i, b := range []Benchmark{Stencil, PingPong, BiRandom, PingPing, BiRandom, Stencil} {
		x := float64(i + 1)
		runs = append(runs, run{
			bw: 1e9 / x, lat: 1e-6 * float64(i%3),
			cfg: FabricConfig{
				XBusBW: 6e9 / x, PCIeBW: 2e9 * x, HostLatency: 5e-7 * float64(i%2),
				Protocol: Protocol{Factors: [3]float64{0.3, 0.2 * x / 2, 0.95}, ChangePoints: [2]float64{8192, 131072}},
			},
			spec: RunSpec{Benchmark: b, MsgBytes: float64(int(1) << (10 + 2*i)), Rounds: 2, Seed: int64(i)},
		})
	}
	reused, tree := fatTreeFabric(t, runs[0].bw, runs[0].lat, runs[0].cfg)
	rerun := func(r run) (float64, error) {
		tree.Configure(platform.FatTreeSpec{GroupSize: 3, NodeBandwidth: r.bw, Latency: r.lat})
		cfg := r.cfg
		cfg.Nodes, cfg.NodeModel = 8, ComplexNode
		if err := reused.Configure(cfg); err != nil {
			t.Fatal(err)
		}
		return Run(reused, r.spec)
	}
	program := func(r run) *program {
		rounds := r.spec.Rounds
		key := programKey{bench: r.spec.Benchmark, rounds: rounds}
		if key.bench == BiRandom {
			key.seed = r.spec.Seed
		}
		p := reused.programs[key]
		if p == nil {
			t.Fatalf("no compiled program for %+v", key)
		}
		return p
	}
	for step, ri := range []int{0, 1, 2, 3, 4, 5, 2, 0, 3, 1, 5, 4} {
		r := runs[ri]
		switch step {
		case 6: // cut off mid-flight
			p := program(r)
			budget := p.budget
			p.budget = 5
			if _, err := rerun(r); err == nil || !strings.Contains(err.Error(), "event bound") {
				t.Fatalf("bounded run: err = %v, want the event bound", err)
			}
			if reused.ps.System.ActiveCount() == 0 && len(reused.pending) == 0 {
				t.Fatal("setup: the bounded run left nothing in flight")
			}
			p.budget = budget
		case 9: // a completion callback panics, recovered by the caller
			c := &program(r).chains[0]
			done, n := c.done, 0
			c.done = func() {
				if n++; n == 3 {
					panic("injected")
				}
				done()
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("injected callback panic did not propagate")
					}
				}()
				rerun(r)
			}()
			c.done = done
		}
		got, err := rerun(r)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := fatTreeFabric(t, r.bw, r.lat, r.cfg)
		want, err := Run(fresh, r.spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d (run %d, %s): rate %v (reused) != %v (fresh)", step, ri, r.spec.Benchmark, got, want)
		}
	}
}

// TestFabricConfigureRejectsAnotherShape: rank placement and node model
// are what paths and programs are compiled against.
func TestFabricConfigureRejectsAnotherShape(t *testing.T) {
	cfg := simpleCfg(1e9)
	f := testFabric(t, 2, 6, 1000, cfg)
	cfg.Nodes = 2
	for _, change := range []func(*FabricConfig){
		func(c *FabricConfig) { c.Nodes = 3 },
		func(c *FabricConfig) { c.RanksPerNode = 4 },
		func(c *FabricConfig) { c.NodeModel, c.XBusBW, c.PCIeBW = ComplexNode, 1, 1 },
	} {
		other := cfg
		change(&other)
		if err := f.Configure(other); err == nil {
			t.Errorf("Configure(%+v) accepted", other)
		}
	}
	cfg.NICBW = 0
	if err := f.Configure(cfg); err == nil || !strings.Contains(err.Error(), "NIC bandwidth") {
		t.Errorf("zero NIC bandwidth: err = %v", err)
	}
	if err := f.Configure(simpleCfgFor(2)); err != nil {
		t.Errorf("same shape, default ranks per node: %v", err)
	}
}

// simpleCfgFor is simpleCfg with the node count filled in and the ranks
// per node left to default.
func simpleCfgFor(nodes int) FabricConfig {
	cfg := simpleCfg(1e9)
	cfg.Nodes = nodes
	return cfg
}
