package groundtruth

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"simcal/internal/core"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/stats"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// smallWFOpts keeps generation fast for tests.
func smallWFOpts() WFOptions {
	return WFOptions{
		Apps:    []wfgen.App{wfgen.Epigenomics},
		SizeIdx: []int{0},
		WorkIdx: []int{1},
		FootIdx: []int{1},
		Workers: []int{2},
		Reps:    3,
		Seed:    1,
	}
}

func TestGenerateWorkflowDataShape(t *testing.T) {
	ds, err := GenerateWorkflowData(smallWFOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(ds.Groups))
	}
	g := ds.Groups[0]
	if len(g.Runs) != 3 {
		t.Errorf("reps = %d, want 3", len(g.Runs))
	}
	if g.MeanMakespan <= 0 {
		t.Error("non-positive mean makespan")
	}
	if len(g.MeanTaskTimes) != g.Spec.Tasks {
		t.Errorf("task means = %d, want %d", len(g.MeanTaskTimes), g.Spec.Tasks)
	}
	if g.Cost() <= 0 || ds.Cost() != g.Cost() {
		t.Error("cost accounting wrong")
	}
}

func TestWorkflowDataHasVarianceAcrossReps(t *testing.T) {
	ds, err := GenerateWorkflowData(smallWFOpts())
	if err != nil {
		t.Fatal(err)
	}
	var ms []float64
	for _, r := range ds.Groups[0].Runs {
		ms = append(ms, r.Makespan)
	}
	if stats.StdDev(ms) == 0 {
		t.Error("repetitions identical — noise not applied")
	}
}

func TestWorkflowDataDeterministicGivenSeed(t *testing.T) {
	a, err := GenerateWorkflowData(smallWFOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWorkflowData(smallWFOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Groups[0].MeanMakespan != b.Groups[0].MeanMakespan {
		t.Error("generation not deterministic")
	}
}

func TestChainUsesOneWorkerOnly(t *testing.T) {
	o := smallWFOpts()
	o.Apps = []wfgen.App{wfgen.Chain}
	o.Workers = []int{1, 2, 4}
	o.FootIdx = []int{0}
	ds, err := GenerateWorkflowData(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range ds.Groups {
		if g.Workers != 1 {
			t.Errorf("chain executed on %d workers", g.Workers)
		}
	}
}

func TestWFTruthPointMatchesSpaces(t *testing.T) {
	for _, v := range wfsim.AllVersions() {
		pt := WorkflowTruthPoint(v)
		sp := v.Space()
		// Every space parameter must be present in the truth point.
		u := sp.Encode(pt)
		for i, s := range sp {
			// Truth must lie inside the search range (not clamped to an
			// endpoint), otherwise calibration can never recover it.
			if u[i] <= 0 || u[i] >= 1 {
				t.Errorf("%s: truth for %s at unit coordinate %v (outside open range)", v.Name(), s.Name, u[i])
			}
		}
	}
}

func TestSyntheticWorkflowDataIsNoiseFree(t *testing.T) {
	template, err := GenerateWorkflowData(smallWFOpts())
	if err != nil {
		t.Fatal(err)
	}
	v := wfsim.HighestDetail
	planted := WorkflowTruthPoint(v)
	syn, err := SyntheticWorkflowData(v, planted, template)
	if err != nil {
		t.Fatal(err)
	}
	if len(syn.Groups) != len(template.Groups) {
		t.Fatal("synthetic group count mismatch")
	}
	for _, g := range syn.Groups {
		if len(g.Runs) != 1 {
			t.Error("synthetic data should have one run per group")
		}
	}
	// Re-simulating at the planted point must reproduce it exactly.
	cfg := v.DecodeConfig(planted)
	wf := wfgen.Generate(syn.Groups[0].Spec)
	res, err := wfsim.Simulate(v, cfg, wfsim.Scenario{Workflow: wf, Workers: syn.Groups[0].Workers})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != syn.Groups[0].MeanMakespan {
		t.Error("synthetic ground truth not reproducible at the planted point")
	}
}

func TestDatasetFilter(t *testing.T) {
	o := smallWFOpts()
	o.Workers = []int{1, 2}
	ds, err := GenerateWorkflowData(o)
	if err != nil {
		t.Fatal(err)
	}
	f := ds.Filter(func(g *WFGroup) bool { return g.Workers == 2 })
	if len(f.Groups) != 1 || f.Groups[0].Workers != 2 {
		t.Error("Filter wrong")
	}
}

func smallMPIOpts() MPIOptions {
	return MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.PingPing},
		Nodes:      []int{4},
		MsgSizes:   []float64{1 << 12, 1 << 20},
		Rounds:     2,
		Reps:       3,
		Seed:       2,
	}
}

func TestGenerateMPIDataShape(t *testing.T) {
	ds, err := GenerateMPIData(smallMPIOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Measurements) != 4 {
		t.Fatalf("measurements = %d, want 4", len(ds.Measurements))
	}
	for _, m := range ds.Measurements {
		if len(m.Rates) != 3 {
			t.Errorf("%s: %d samples, want 3", m.Key(), len(m.Rates))
		}
		if m.MeanRate() <= 0 {
			t.Errorf("%s: non-positive mean rate", m.Key())
		}
		if stats.StdDev(m.Rates) == 0 {
			t.Errorf("%s: no sample variance", m.Key())
		}
	}
}

func TestMPIDataDeterministicGivenSeed(t *testing.T) {
	a, err := GenerateMPIData(smallMPIOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMPIData(smallMPIOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Measurements {
		if a.Measurements[i].MeanRate() != b.Measurements[i].MeanRate() {
			t.Fatal("MPI generation not deterministic")
		}
	}
}

func TestMPITruthPointMatchesSpaces(t *testing.T) {
	for _, v := range mpisim.AllVersions() {
		pt := MPITruthPoint(v)
		sp := v.Space()
		u := sp.Encode(pt)
		for i, s := range sp {
			if u[i] <= 0 || u[i] >= 1 {
				t.Errorf("%s: truth for %s at unit coordinate %v", v.Name(), s.Name, u[i])
			}
		}
	}
}

func TestSyntheticMPIData(t *testing.T) {
	template, err := GenerateMPIData(smallMPIOpts())
	if err != nil {
		t.Fatal(err)
	}
	v := mpisim.LowestDetail
	planted := MPITruthPoint(v)
	syn, err := SyntheticMPIData(v, planted, template, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(syn.Measurements) != len(template.Measurements) {
		t.Fatal("synthetic measurement count mismatch")
	}
	for _, m := range syn.Measurements {
		if len(m.Rates) != 1 {
			t.Error("synthetic MPI data should be single-sample")
		}
		if m.Rates[0] <= 0 || math.IsNaN(m.Rates[0]) {
			t.Error("bad synthetic rate")
		}
	}
}

func TestMPIDatasetFilter(t *testing.T) {
	ds, err := GenerateMPIData(smallMPIOpts())
	if err != nil {
		t.Fatal(err)
	}
	f := ds.Filter(func(m *MPIMeasurement) bool { return m.Benchmark == mpi.PingPong })
	if len(f.Measurements) != 2 {
		t.Errorf("filtered = %d, want 2", len(f.Measurements))
	}
}

func TestTruthPointsDecodeToValidConfigs(t *testing.T) {
	cfg := wfsim.HighestDetail.DecodeConfig(WorkflowTruthPoint(wfsim.HighestDetail))
	if cfg.CoreSpeed != WorkflowTruth.CoreSpeed || cfg.SubmitOvh != WorkflowTruth.SubmitOvh {
		t.Error("workflow truth point does not decode to the truth config")
	}
	mcfg := MPIReferenceVersion.DecodeConfig(MPITruthPoint(MPIReferenceVersion))
	if mcfg.LinkBW != MPITruth.LinkBW || mcfg.Protocol.Factors != MPITruth.Protocol.Factors {
		t.Error("MPI truth point does not decode to the truth config")
	}
	var _ core.Point = MPITruthPoint(MPIReferenceVersion)
}

// TestGenerateMPIDataPinned pins GenerateMPIData's output across
// commits: FNV-1a over every measurement's key and the Float64bits of
// its rates, in dataset order. Any change to the reference system, its
// noise stream or the measurement order moves the hash.
func TestGenerateMPIDataPinned(t *testing.T) {
	ds, err := GenerateMPIData(MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.PingPing, mpi.BiRandom, mpi.Stencil},
		Nodes:      []int{8}, MsgSizes: mpisim.MsgSizes(), Rounds: 4, Reps: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, m := range ds.Measurements {
		h.Write([]byte(m.Key()))
		for _, r := range m.Rates {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
			h.Write(b[:])
		}
	}
	const wantN, wantHash = 52, 0xd6b729ef6766f23c
	if len(ds.Measurements) != wantN || h.Sum64() != wantHash {
		t.Errorf("%d measurements, hash %#016x; want %d, %#016x", len(ds.Measurements), h.Sum64(), wantN, uint64(wantHash))
	}
}
