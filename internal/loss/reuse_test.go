package loss

import (
	"context"
	"math"
	"sync"
	"testing"

	"simcal/internal/core"
	"simcal/internal/groundtruth"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/stats"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

func mixedWFDataset(t testing.TB) *groundtruth.WFDataset {
	t.Helper()
	ds, err := groundtruth.GenerateWorkflowData(groundtruth.WFOptions{
		Apps:    []wfgen.App{wfgen.Forkjoin, wfgen.Montage},
		SizeIdx: []int{0},
		WorkIdx: []int{1},
		FootIdx: []int{1},
		Workers: []int{1, 3},
		Reps:    2,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// referenceWFLoss is the loss written out longhand on one-shot
// simulations and name-keyed results: the definition the index-based
// evaluator on reused runners must reproduce bit for bit.
func referenceWFLoss(t *testing.T, v wfsim.Version, kind WFKind, ds *groundtruth.WFDataset, p core.Point) float64 {
	t.Helper()
	cfg := v.DecodeConfig(p)
	var terms []float64
	for _, g := range ds.Groups {
		res, err := wfsim.Simulate(v, cfg, wfsim.Scenario{Workflow: wfgen.Generate(g.Spec), Workers: g.Workers})
		if err != nil {
			t.Fatal(err)
		}
		var taskErrs []float64
		for _, name := range g.TaskNames {
			taskErrs = append(taskErrs, stats.RelError(g.MeanTaskTimes[name], res.TaskTimes[name]))
		}
		term := stats.RelError(g.MeanMakespan, res.Makespan)
		switch kind {
		case WFL3, WFL4:
			term += stats.Mean(taskErrs)
		case WFL5, WFL6:
			term += stats.Max(taskErrs)
		}
		terms = append(terms, term)
	}
	switch kind {
	case WFL1, WFL3, WFL5:
		return stats.Mean(terms)
	default:
		return stats.Max(terms)
	}
}

func mixedMPIDataset(t testing.TB) *groundtruth.MPIDataset {
	t.Helper()
	ds, err := groundtruth.GenerateMPIData(groundtruth.MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.BiRandom, mpi.Stencil},
		Nodes:      []int{4, 6},
		MsgSizes:   []float64{1 << 10, 1 << 17},
		Rounds:     2, Reps: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// referenceMPILoss is the MPI loss written out longhand on one-shot
// simulations and name-keyed groups.
func referenceMPILoss(t *testing.T, v mpisim.Version, kind MPIKind, ds *groundtruth.MPIDataset, rounds int, p core.Point) float64 {
	t.Helper()
	cfg := v.DecodeConfig(p)
	perBench := make(map[mpi.Benchmark][]float64)
	var order []mpi.Benchmark
	for _, m := range ds.Measurements {
		rate, err := mpisim.Simulate(v, cfg, mpisim.Scenario{Benchmark: m.Benchmark, Nodes: m.Nodes, MsgBytes: m.MsgBytes, Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		if _, seen := perBench[m.Benchmark]; !seen {
			order = append(order, m.Benchmark)
		}
		perBench[m.Benchmark] = append(perBench[m.Benchmark], stats.ExplainedVariance(m.Rates, rate))
	}
	var terms []float64
	for _, b := range order {
		switch kind {
		case MPIL1, MPIL3:
			terms = append(terms, stats.Mean(perBench[b]))
		default:
			terms = append(terms, stats.Max(perBench[b]))
		}
	}
	switch kind {
	case MPIL1, MPIL2:
		return stats.Mean(terms)
	default:
		return stats.Max(terms)
	}
}

func samplePoints(sp core.Space, seed int64, n int) []core.Point {
	rng := stats.NewRNG(seed)
	pts := make([]core.Point, n)
	for i := range pts {
		pts[i] = sp.Decode(sp.Sample(rng))
	}
	return pts
}

// bitwiseUnderConcurrentReuse calls one evaluator from several goroutines
// at once, over the points in different orders, and wants for each point
// exactly the bits of the longhand reference — whichever runner set,
// warmed by whichever earlier points, serves the call.
func bitwiseUnderConcurrentReuse(t *testing.T, label string, ev core.Evaluator, pts []core.Point, reference func(core.Point) float64) {
	t.Helper()
	want := make([]uint64, len(pts))
	for i, p := range pts {
		want[i] = math.Float64bits(reference(p))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 3*len(pts); n++ {
				i := (n*(g+1) + g) % len(pts)
				got, err := ev(context.Background(), pts[i])
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				if math.Float64bits(got) != want[i] {
					t.Errorf("%s at point %d: %v, want %v", label, i, got, math.Float64frombits(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestWFEvaluatorBitwiseUnderConcurrentReuse(t *testing.T) {
	ds := mixedWFDataset(t)
	v := wfsim.HighestDetail
	pts := samplePoints(v.Space(), 17, 5)
	for _, kind := range AllWFKinds {
		bitwiseUnderConcurrentReuse(t, kind.String(), WFEvaluator(v, kind, ds), pts, func(p core.Point) float64 {
			return referenceWFLoss(t, v, kind, ds, p)
		})
	}
}

func TestMPIEvaluatorBitwiseUnderConcurrentReuse(t *testing.T) {
	ds := mixedMPIDataset(t)
	v := mpisim.HighestDetail
	pts := samplePoints(v.Space(), 19, 5)
	for _, kind := range AllMPIKinds {
		bitwiseUnderConcurrentReuse(t, kind.String(), MPIEvaluator(v, kind, ds, 2), pts, func(p core.Point) float64 {
			return referenceMPILoss(t, v, kind, ds, 2, p)
		})
	}
}

// survivesPanickingCall: a call that panics inside the simulator abandons
// its runner set instead of handing a half-updated kernel to the next
// call; later calls are unaffected.
func survivesPanickingCall(t *testing.T, ev core.Evaluator, good, bad core.Point) {
	t.Helper()
	want, err := ev(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the bad point did not panic")
			}
		}()
		ev(context.Background(), bad)
	}()
	for i := 0; i < 3; i++ {
		got, err := ev(context.Background(), good)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after a panicking call: %v, want %v", got, want)
		}
	}
}

func TestWFEvaluatorSurvivesPanickingCall(t *testing.T) {
	v := wfsim.HighestDetail
	good := samplePoints(v.Space(), 2, 1)[0]
	bad := good.Clone()
	bad[wfsim.ParamPreOvh] = math.NaN() // an event scheduled at NaN panics mid-run
	survivesPanickingCall(t, WFEvaluator(v, WFL3, mixedWFDataset(t)), good, bad)
}

func TestMPIEvaluatorSurvivesPanickingCall(t *testing.T) {
	v := mpisim.HighestDetail
	good := samplePoints(v.Space(), 2, 1)[0]
	bad := good.Clone()
	bad[mpisim.ParamPCIeBW] = math.NaN() // a NaN capacity panics after the uplinks were rewritten
	survivesPanickingCall(t, MPIEvaluator(v, MPIL3, mixedMPIDataset(t), 2), good, bad)
}

// TestWFEvaluatorAllocationCeiling is the noise-free performance gate on
// the evaluator: once a runner set is warm, an evaluation — 4 group
// simulations plus the loss — stays within a fixed handful of
// allocations (measured: 0).
func TestWFEvaluatorAllocationCeiling(t *testing.T) {
	ds := mixedWFDataset(t)
	v := wfsim.HighestDetail
	sp := v.Space()
	rng := stats.NewRNG(23)
	pts := make([]core.Point, 4)
	for _, kind := range []WFKind{WFL1, WFL4, WFL6} {
		ev := WFEvaluator(v, kind, ds)
		for i := range pts {
			pts[i] = sp.Decode(sp.Sample(rng))
			if _, err := ev(context.Background(), pts[i]); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ev(context.Background(), pts[i%len(pts)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 4 {
			t.Errorf("%s: warmed evaluator allocates %v times per call, ceiling 4", kind, allocs)
		}
	}
}

// TestWFEvaluatorRejectsForeignTaskNames: the runner's task times are
// read by position, so a group whose task names differ from its
// generated workflow's must fail loudly instead of scoring a 0.
func TestWFEvaluatorRejectsForeignTaskNames(t *testing.T) {
	ds := mixedWFDataset(t)
	g := ds.Groups[len(ds.Groups)-1]
	g.TaskNames = append([]string(nil), g.TaskNames...)
	g.TaskNames[1] = "a-ghost"
	v := wfsim.LowestDetail
	p := v.Space().Decode([]float64{0.4, 0.6, 0.5, 0.3, 0.7})
	if _, err := WFEvaluator(v, WFL3, ds)(context.Background(), p); err == nil {
		t.Error("a group naming a task its workflow lacks was scored")
	}
}
