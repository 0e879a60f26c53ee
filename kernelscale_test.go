package simcal

import (
	"math"
	"testing"
	"time"

	"simcal/internal/groundtruth"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// kernelScenario is one of the flow/DES kernel's scale scenarios: the
// paper's case studies scaled well past the evaluation's sizes.
type kernelScenario struct {
	name string
	// bits is math.Float64bits of the scenario's observable, recorded on
	// the kernel before its incremental-solver rewrite and unchanged
	// since: a kernel change that moves any trajectory, even in the last
	// ULP, moves it.
	bits uint64
	// setup builds the scenario's inputs and returns its simulation,
	// which yields the observable.
	setup func() func() (float64, error)
}

// kernelScenarios are run in this order by TestKernelScaleBits; the
// kernel benchmarks in bench_test.go take theirs from here. The two
// smaller entries anchor the larger ones at sizes the pre-rewrite kernel
// simulated in seconds.
var kernelScenarios = []kernelScenario{
	wfKernelScenario("wf-10k", 10_000, 0x40659fd4b60c9cd6),
	wfKernelScenario("wf-100k", 100_000, 0x4099bdbd9f0ad2eb),
	stencilKernelScenario("mpi-stencil-128", 128, 0x426800f8db52400d),
	stencilKernelScenario("mpi-stencil-512", 512, 0x42880a08d270e4de),
}

// kernelScaleBudget is each scenario's wall budget, setup included: the
// 9 s recorded with the bits plus 10 % headroom.
const kernelScaleBudget = 9900 * time.Millisecond

// wfKernelScenario is a Seismology workflow of the given size on 6
// workers under the highest level of detail at the ground-truth point;
// its observable is the makespan in seconds.
func wfKernelScenario(name string, tasks int, bits uint64) kernelScenario {
	return kernelScenario{name: name, bits: bits, setup: func() func() (float64, error) {
		wf := wfgen.Generate(wfgen.Spec{App: wfgen.Seismology, Tasks: tasks, WorkSeconds: 1.91, FootprintBytes: 1500 * wfgen.MB})
		v := wfsim.HighestDetail
		cfg := v.DecodeConfig(groundtruth.WorkflowTruthPoint(v))
		return func() (float64, error) {
			res, err := wfsim.Simulate(v, cfg, wfsim.Scenario{Workflow: wf, Workers: 6})
			if err != nil {
				return 0, err
			}
			return res.Makespan, nil
		}
	}}
}

// stencilKernelScenario is a dense 2D stencil on a fat tree of the given
// node count (6 ranks a node), 64 KiB messages, 2 rounds, under the MPI
// ground truth; its observable is the aggregate rate in bytes/s.
func stencilKernelScenario(name string, nodes int, bits uint64) kernelScenario {
	return kernelScenario{name: name, bits: bits, setup: func() func() (float64, error) {
		return func() (float64, error) {
			return mpisim.Simulate(groundtruth.MPIReferenceVersion, groundtruth.MPITruth, mpisim.Scenario{
				Benchmark: mpi.Stencil, Nodes: nodes, MsgBytes: 1 << 16, Rounds: 2,
			})
		}
	}}
}

// TestKernelScaleBits runs every kernel scale scenario once, serially so
// that each timing is the scenario's own, and requires its observable's
// recorded bits and, except under the race detector, its wall budget.
func TestKernelScaleBits(t *testing.T) {
	for _, sc := range kernelScenarios {
		t.Run(sc.name, func(t *testing.T) {
			start := time.Now()
			got, err := sc.setup()()
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if b := math.Float64bits(got); b != sc.bits {
				t.Errorf("observable %.17g (%#016x), recorded %.17g (%#016x)", got, b, math.Float64frombits(sc.bits), sc.bits)
			}
			if !raceEnabled && elapsed > kernelScaleBudget {
				t.Errorf("took %v, budget %v", elapsed, kernelScaleBudget)
			}
			t.Logf("%.17g in %v", got, elapsed)
		})
	}
}
