package wfsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"simcal/internal/stats"
	"simcal/internal/wfgen"
)

// randomCfg draws a valid random configuration for the version.
func randomCfg(v Version, rng *stats.RNG) Config {
	sp := v.Space()
	return v.DecodeConfig(sp.Decode(sp.Sample(rng)))
}

// TestMakespanCriticalPathLowerBound: the simulated makespan can never
// beat the critical-path work at full core speed — a fundamental
// scheduling bound that must hold for every version and configuration.
func TestMakespanCriticalPathLowerBound(t *testing.T) {
	wf := wfgen.Generate(wfgen.Spec{App: wfgen.Montage, Tasks: 60, WorkSeconds: 2, FootprintBytes: 150 * wfgen.MB})
	cp := wf.CriticalPathWork()
	f := func(seed int64, vIdx uint8, workers uint8) bool {
		rng := stats.NewRNG(seed)
		versions := AllVersions()
		v := versions[int(vIdx)%len(versions)]
		cfg := randomCfg(v, rng)
		nw := 1 + int(workers)%4
		res, err := Simulate(v, cfg, Scenario{Workflow: wf, Workers: nw})
		if err != nil {
			return false
		}
		bound := cp / cfg.CoreSpeed
		return res.Makespan >= bound*(1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestMakespanMonotoneInCoreSpeed: doubling core speed cannot increase
// the makespan of a compute-only workflow.
func TestMakespanMonotoneInCoreSpeed(t *testing.T) {
	wf := wfgen.Generate(wfgen.Spec{App: wfgen.Seismology, Tasks: 103, WorkSeconds: 5, FootprintBytes: 0})
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		v := Version{OneLink, SubmitOnly, Direct}
		cfg := randomCfg(v, rng)
		slow, err := Simulate(v, cfg, Scenario{Workflow: wf, Workers: 2})
		if err != nil {
			return false
		}
		cfg2 := cfg
		cfg2.CoreSpeed *= 2
		fast, err := Simulate(v, cfg2, Scenario{Workflow: wf, Workers: 2})
		if err != nil {
			return false
		}
		return fast.Makespan <= slow.Makespan*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestOverheadsOnlyIncreaseMakespan: adding HTCondor overheads to an
// otherwise identical configuration cannot shorten the execution.
func TestOverheadsOnlyIncreaseMakespan(t *testing.T) {
	wf := wfgen.Generate(wfgen.Spec{App: wfgen.Epigenomics, Tasks: 43, WorkSeconds: 1, FootprintBytes: 150 * wfgen.MB})
	f := func(seed int64, ovh uint8) bool {
		rng := stats.NewRNG(seed)
		v := Version{Star, AllNodes, HTCondor}
		cfg := randomCfg(v, rng)
		cfg.SubmitOvh, cfg.PreOvh, cfg.PostOvh = 0, 0, 0
		base, err := Simulate(v, cfg, Scenario{Workflow: wf, Workers: 2})
		if err != nil {
			return false
		}
		cfg.SubmitOvh = float64(ovh%20) + 0.1
		withOvh, err := Simulate(v, cfg, Scenario{Workflow: wf, Workers: 2})
		if err != nil {
			return false
		}
		return withOvh.Makespan >= base.Makespan-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestTaskTimesSumBound: the sum of task walltimes over workers×cores
// bounds the makespan from below (work conservation).
func TestTaskTimesSumBound(t *testing.T) {
	wf := wfgen.Generate(wfgen.Spec{App: wfgen.Genome1000, Tasks: 54, WorkSeconds: 1, FootprintBytes: 150 * wfgen.MB})
	v := Version{Star, AllNodes, HTCondor}
	cfg := randomCfg(v, stats.NewRNG(7))
	cfg.WorkerCores = 4
	res, err := Simulate(v, cfg, Scenario{Workflow: wf, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, tt := range res.TaskTimes {
		sum += tt
	}
	// 2 workers × 4 cores can absorb at most 8 task-seconds per second.
	if res.Makespan < sum/8-1e-9 {
		t.Errorf("makespan %v below work-conservation bound %v", res.Makespan, sum/8)
	}
}

// TestFasterNetworkNeverHurtsDataHeavy: for a data-heavy workflow on
// one worker core, scaling the network bandwidth up cannot increase the
// makespan. One core runs the tasks one at a time, in an order no
// timing changes, so only a task's own files ever share the link and
// the disk. With more cores the claim is false, as it is on a real
// platform: the named inputs are where two 48-core workers finish later
// on the faster network. In "shared bandwidth" every task keeps its
// worker, but transfers that now start closer together share the link
// and the submit disk for longer, and the last of them ends later. In
// "disk queue" a stage-in read waits one more turn at the submit disk,
// which serves three I/Os at a time in arrival order, behind writes
// that now arrive first.
func TestFasterNetworkNeverHurtsDataHeavy(t *testing.T) {
	wf := wfgen.Generate(wfgen.Spec{App: wfgen.Epigenomics, Tasks: 43, WorkSeconds: 0.5, FootprintBytes: 1500 * wfgen.MB})
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		v := Version{OneLink, SubmitOnly, Direct}
		cfg := randomCfg(v, rng)
		cfg.WorkerCores = 1
		slow, err := Simulate(v, cfg, Scenario{Workflow: wf, Workers: 1})
		if err != nil {
			return false
		}
		cfg.LinkBW *= 4
		fast, err := Simulate(v, cfg, Scenario{Workflow: wf, Workers: 1})
		if err != nil {
			return false
		}
		return fast.Makespan <= slow.Makespan*(1+1e-9)
	}
	for name, seed := range map[string]int64{"shared bandwidth": 160293259050391691, "disk queue": 7313300577494867126} {
		t.Run(name, func(t *testing.T) {
			if !f(seed) {
				t.Errorf("seed %d: the faster network lengthened the makespan", seed)
			}
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestMakespanFiniteAndPositiveEverywhere: no random configuration may
// produce a non-finite or non-positive makespan.
func TestMakespanFiniteAndPositiveEverywhere(t *testing.T) {
	wf := wfgen.Generate(wfgen.Spec{App: wfgen.SoyKB, Tasks: 98, WorkSeconds: 1, FootprintBytes: 150 * wfgen.MB})
	rng := stats.NewRNG(11)
	for _, v := range AllVersions() {
		for trial := 0; trial < 10; trial++ {
			cfg := randomCfg(v, rng)
			res, err := Simulate(v, cfg, Scenario{Workflow: wf, Workers: 3})
			if err != nil {
				t.Fatalf("%s: %v", v.Name(), err)
			}
			if res.Makespan <= 0 || math.IsInf(res.Makespan, 0) || math.IsNaN(res.Makespan) {
				t.Fatalf("%s: makespan %v", v.Name(), res.Makespan)
			}
		}
	}
}
