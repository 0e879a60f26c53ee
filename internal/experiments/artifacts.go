package experiments

import (
	"context"
	"io"
)

// Result is what an artifact's Run returns: a value that JSON-encodes
// (the -json file, the golden) and renders its own console text.
type Result interface {
	WriteText(w io.Writer)
}

// Artifact is one regenerable table, figure or study.
type Artifact struct {
	// ID is what `cmd/experiments -run` and `BenchmarkArtifact/` name.
	ID string
	// Paper says what the artifact reproduces.
	Paper string
	// All reports whether `-run all` includes it.
	All bool
	Run func(ctx context.Context, o Options) (Result, error)
}

// Artifacts is the one ordered list of everything this package
// regenerates: cmd/experiments, the root benchmarks, the golden test and
// the docs test all read it, so adding an artifact is one row here plus
// its driver.
var Artifacts = []Artifact{
	{"table1", "Table 1 — workflow benchmark specifications", true, fixed(Table1Rows)},
	{"table2", "Table 2 — level-of-detail options, case study 1", true, fixed(Table2Rows)},
	{"table3", "Table 3 — calibration error per algorithm × loss, workflows", true, driver(Table3)},
	{"figure1", "Figure 1 — loss vs time, workflows", true, driver(Figure1)},
	{"figure2", "Figure 2 — makespan error of the 12 calibrated versions", true, driver(Figure2)},
	{"baseline1", "§5.4 — spec-based vs calibrated, workflows", true, driver(Baseline1)},
	{"figure3", "Figure 3 — training-dataset cost vs test loss", true, driver(Figure3)},
	{"section55", "§5.5 — training-data diversity", true, driver(Section55)},
	{"table4", "Table 4 — level-of-detail options, case study 2", true, fixed(Table4Rows)},
	{"table5", "Table 5 — calibration and rate error per algorithm × loss, MPI", true, driver(Table5)},
	{"figure4", "Figure 4 — loss vs time, MPI", true, driver(Figure4)},
	{"figure5", "Figure 5 — transfer-rate error of the 16 calibrated versions", true, driver(Figure5)},
	{"baseline2", "§6.4 — spec-based vs calibrated, MPI", true, driver(Baseline2)},
	{"section65", "§6.5 — cross-benchmark and cross-scale generalization", true, driver(Section65)},
	{"ablation-alg", "§4 — all seven algorithms at an equal budget", true, driver(AblationAlgorithms)},
	{"ablation-budget", "§3 — accuracy vs calibration budget", true, driver(AblationBudget)},
	{"ablation-storage", "storage level of detail on data-heavy vs data-free workloads", true, driver(AblationStorageValue)},
	{"casestudy3", "conclusion's future work — batch scheduling", true, driver(CaseStudy3)},
	// Not part of 'all': it measures the calibration runtime, not a
	// paper artifact.
	{"faults", "runtime robustness — calibration error vs injected fault rate", false, driver(Faults)},
}

// LookupArtifact finds an artifact by id.
func LookupArtifact(id string) (Artifact, bool) {
	for _, a := range Artifacts {
		if a.ID == id {
			return a, true
		}
	}
	return Artifact{}, false
}

// driver adapts a typed driver to Artifact.Run.
func driver[T Result](f func(context.Context, Options) (T, error)) func(context.Context, Options) (Result, error) {
	return func(ctx context.Context, o Options) (Result, error) {
		res, err := f(ctx, o)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// fixed adapts a table that depends on no option.
func fixed[T Result](f func() T) func(context.Context, Options) (Result, error) {
	return func(context.Context, Options) (Result, error) { return f(), nil }
}
