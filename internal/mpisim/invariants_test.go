package mpisim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"simcal/internal/mpi"
	"simcal/internal/stats"
)

func randomCfg(v Version, rng *stats.RNG) Config {
	sp := v.Space()
	return v.DecodeConfig(sp.Decode(sp.Sample(rng)))
}

// TestRateMonotoneInBandwidth: scaling every bandwidth up by 4× cannot
// decrease the transfer rate.
func TestRateMonotoneInBandwidth(t *testing.T) {
	f := func(seed int64, vIdx uint8) bool {
		rng := stats.NewRNG(seed)
		versions := AllVersions()
		v := versions[int(vIdx)%len(versions)]
		cfg := randomCfg(v, rng)
		sc := Scenario{Benchmark: mpi.PingPong, Nodes: 4, MsgBytes: 1 << 18, Rounds: 2}
		slow, err := Simulate(v, cfg, sc)
		if err != nil {
			return false
		}
		cfg2 := cfg
		cfg2.BackboneBW *= 4
		cfg2.LinkBW *= 4
		cfg2.NICBW *= 4
		cfg2.XBusBW *= 4
		cfg2.PCIeBW *= 4
		fast, err := Simulate(v, cfg2, sc)
		if err != nil {
			return false
		}
		return fast >= slow*(1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestRateBoundedByProtocolAndBottleneck: the aggregate PingPong rate of
// a single pair on an otherwise idle backbone cannot exceed
// factor × backbone bandwidth.
func TestRateBoundedByProtocolAndBottleneck(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		v := LowestDetail
		cfg := randomCfg(v, rng)
		cfg.RanksPerNode = 1
		sc := Scenario{Benchmark: mpi.PingPong, Nodes: 2, MsgBytes: 1 << 22, Rounds: 2}
		rate, err := Simulate(v, cfg, sc)
		if err != nil {
			return false
		}
		factor := cfg.Protocol.Factor(sc.MsgBytes)
		bound := factor * math.Min(cfg.BackboneBW, cfg.NICBW)
		return rate <= bound*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestRatePositiveFiniteEverywhere: every version × random configuration
// must yield a positive finite rate for all benchmarks.
func TestRatePositiveFiniteEverywhere(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, v := range AllVersions() {
		cfg := randomCfg(v, rng)
		for _, b := range mpi.AllBenchmarks {
			rate, err := Simulate(v, cfg, Scenario{Benchmark: b, Nodes: 4, MsgBytes: 1 << 14, Rounds: 2, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", v.Name(), b, err)
			}
			if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
				t.Fatalf("%s/%s: rate %v", v.Name(), b, rate)
			}
		}
	}
}

// TestHigherLatencyNeverSpeedsUp: increasing latency cannot increase the
// rate of a latency-sensitive small-message benchmark.
func TestHigherLatencyNeverSpeedsUp(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		v := Version{Network: BackboneLinks, Node: SimpleNode, Protocol: FixedPoints}
		cfg := randomCfg(v, rng)
		sc := Scenario{Benchmark: mpi.PingPong, Nodes: 2, MsgBytes: 1 << 10, Rounds: 2}
		base, err := Simulate(v, cfg, sc)
		if err != nil {
			return false
		}
		cfg2 := cfg
		cfg2.LinkLat += 0.001
		cfg2.BackboneLat += 0.001
		slower, err := Simulate(v, cfg2, sc)
		if err != nil {
			return false
		}
		return slower <= base*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestMoreRanksMoveMoreBytes: with ample bandwidth, doubling the node
// count roughly doubles the aggregate PingPong rate (each pair is
// independent on a fat tree).
func TestMoreRanksMoveMoreBytes(t *testing.T) {
	cfg := summitLike()
	v := Version{Network: FatTree, Node: SimpleNode, Protocol: FixedPoints}
	r4, err := Simulate(v, cfg, Scenario{Benchmark: mpi.PingPong, Nodes: 4, MsgBytes: 1 << 20, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Simulate(v, cfg, Scenario{Benchmark: mpi.PingPong, Nodes: 8, MsgBytes: 1 << 20, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r8 < r4*1.5 {
		t.Errorf("8-node rate %v not ~2x the 4-node rate %v on a non-blocking fabric", r8, r4)
	}
}
