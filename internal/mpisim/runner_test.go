package mpisim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"simcal/internal/mpi"
	"simcal/internal/obs"
	"simcal/internal/stats"
)

// TestRunnerReuseEqualsFresh is the reuse contract: one Runner per
// version driven through a shuffled sequence of configurations — every
// benchmark, three message sizes (so the protocol band moves), two node
// counts, BiRandom under several seeds, another number of ranks per node
// in between, with and without noise — returns, run for run, the bits a
// freshly built simulator returns. In between, a run the configuration
// check rejects and a run whose start callback panics mid-simulation
// (recovered here) must leave no trace. Runs cut off by the event bound
// or by a panicking completion callback need a hand inside the message
// program: mpi's TestFabricReuseAfterAbortedRuns has those.
func TestRunnerReuseEqualsFresh(t *testing.T) {
	type run struct {
		cfg Config
		sc  Scenario
	}
	for vi, v := range AllVersions() {
		for _, noisy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noise=%v", v.Name(), noisy), func(t *testing.T) {
				rng := stats.NewRNG(int64(100*vi + 7))
				var runs []run
				for i, b := range append(mpi.AllBenchmarks, mpi.BiRandom, mpi.BiRandom) {
					for j, msg := range []float64{1 << 10, 1 << 15, 1 << 21} {
						cfg := randomCfg(v, rng)
						if j == 1 {
							cfg.HostLatency = 2e-6
						}
						if (i+j)%4 == 3 {
							cfg.RanksPerNode = 3
						}
						if noisy {
							cfg.Noise = &NoiseModel{Seed: int64(3*i + j + 1), BandwidthSpread: 0.04, LatencySpread: 0.10, NodeSpread: 0.02}
						}
						runs = append(runs, run{cfg, Scenario{
							Benchmark: b, Nodes: 4 + 15*(j%2), MsgBytes: msg, Rounds: 1 + i%2, Seed: int64(i),
						}})
					}
				}
				r := NewRunner(v)
				order := append(rng.Perm(len(runs)), rng.Perm(len(runs))...)
				for step, ri := range order {
					cfg, sc := runs[ri].cfg, runs[ri].sc
					switch step {
					case 3: // rejected before the simulation starts
						bad := cfg
						bad.Protocol.Factors[1] = 0
						if _, err := r.Run(bad, sc); err == nil || !strings.Contains(err.Error(), "protocol factor") {
							t.Fatalf("zero protocol factor: err = %v", err)
						}
					case 7: // the kernel refuses the first message it is to start
						bad := sc
						bad.MsgBytes = math.NaN()
						func() {
							defer func() {
								if recover() == nil {
									t.Fatal("NaN message size did not panic")
								}
							}()
							r.Run(cfg, bad)
						}()
					}
					got, err := r.Run(cfg, sc)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Simulate(v, cfg, sc)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d (run %d, %+v): rate %v (reused) != %v (fresh)", step, ri, sc, got, want)
					}
				}
			})
		}
	}
}

// TestRunnerReuseKeepsKernelMetrics: N runs on one Runner publish
// exactly N times what one fresh simulation publishes — the run-end hook
// list does not grow across resets and no run's counters leak into the
// next.
func TestRunnerReuseKeepsKernelMetrics(t *testing.T) {
	v := Version{FatTree, ComplexNode, FixedPoints}
	cfg := summitLike()
	sc := Scenario{Benchmark: mpi.Stencil, Nodes: 8, MsgBytes: 1 << 16, Rounds: 2}
	names := []string{"des.engine_runs", "des.events_fired", "des.events_removed", "flow.solves", "flow.solve_iterations"}
	read := func() []int64 {
		out := make([]int64, len(names))
		for i, n := range names {
			out[i] = obs.Default().Counter(n).Value()
		}
		return out
	}
	before := read()
	if _, err := Simulate(v, cfg, sc); err != nil {
		t.Fatal(err)
	}
	fresh := read()
	r := NewRunner(v)
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := r.Run(cfg, sc); err != nil {
			t.Fatal(err)
		}
	}
	reused := read()
	for i, name := range names {
		one := fresh[i] - before[i]
		if one <= 0 && name != "des.events_removed" {
			t.Errorf("%s: a fresh run published %d", name, one)
		}
		if got := reused[i] - fresh[i]; got != n*one {
			t.Errorf("%s: %d reused runs published %d, want %d × %d", name, n, got, n, one)
		}
	}
}

// TestRunnerRunAllocationFree is the noise-free performance gate: a
// warmed Runner simulates without allocating, whichever of its scenarios
// it is asked for.
func TestRunnerRunAllocationFree(t *testing.T) {
	v := Version{FatTree, ComplexNode, FreePoints}
	for _, nodes := range []int{8, 128} {
		r := NewRunner(v)
		rng := stats.NewRNG(11)
		cfgs := []Config{randomCfg(v, rng), randomCfg(v, rng), randomCfg(v, rng)}
		var scs []Scenario
		for _, b := range mpi.AllBenchmarks {
			scs = append(scs, Scenario{Benchmark: b, Nodes: nodes, MsgBytes: 1 << 16, Rounds: 2})
		}
		// Warm every buffer to its high-water mark. Which activity record a
		// message gets depends on the configuration, so each scenario meets
		// each configuration more than once.
		for pass := 0; pass < 2; pass++ {
			for _, cfg := range cfgs {
				for _, sc := range scs {
					if _, err := r.Run(cfg, sc); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(12, func() {
			if _, err := r.Run(cfgs[i%len(cfgs)], scs[i%len(scs)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%d nodes: warmed Runner.Run allocates %v times per run, want 0", nodes, allocs)
		}
	}
}

func TestRunnerRejectsBadScenarios(t *testing.T) {
	cfg := summitLike()
	r := NewRunner(LowestDetail)
	if _, err := r.Run(cfg, Scenario{Benchmark: mpi.PingPong, Nodes: 1, MsgBytes: 1024}); err == nil || !strings.Contains(err.Error(), "at least 2 nodes") {
		t.Errorf("one node: err = %v", err)
	}
	if _, err := r.Run(cfg, Scenario{Benchmark: "bogus", Nodes: 2, MsgBytes: 1024}); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("unknown benchmark: err = %v", err)
	}
	if _, err := NewRunner(Version{Network: 9}).Run(cfg, Scenario{Benchmark: mpi.PingPong, Nodes: 2, MsgBytes: 1024}); err == nil || !strings.Contains(err.Error(), "unknown network") {
		t.Errorf("unknown network: err = %v", err)
	}
	// The Runner still serves good scenarios.
	if _, err := r.Run(cfg, Scenario{Benchmark: mpi.PingPong, Nodes: 2, MsgBytes: 1024}); err != nil {
		t.Error(err)
	}
}
