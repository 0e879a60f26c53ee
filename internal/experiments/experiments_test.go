package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"simcal/internal/wfgen"
)

// tiny returns the smallest meaningful configuration so the integration
// tests complete in seconds.
func tiny() Options {
	o := Default()
	o.MaxEvals = 12
	o.Restarts = 1
	o.TrainingBudget = 250 * time.Millisecond
	o.Workers = 2
	o.WFApps = []wfgen.App{wfgen.Forkjoin}
	o.WFSizeIdx = []int{0, 1}
	o.WFWorkIdx = []int{1}
	o.WFFootIdx = []int{1}
	o.WFWorkers = []int{1, 2}
	o.Reps = 2
	o.MPINodes = []int{2, 4}
	o.MPIMsgSizes = []float64{1 << 12, 1 << 18}
	o.MPIRounds = 1
	return o
}

// tinyReal swaps in a real application (needed by drivers that exclude
// synthetic patterns).
func tinyReal() Options {
	o := tiny()
	o.WFApps = []wfgen.App{wfgen.Epigenomics}
	return o
}

func TestTable1Rows(t *testing.T) {
	rows := Table1Rows()
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	for _, r := range rows {
		if !r.Generated {
			t.Errorf("%s: generation failed for some size", r.App)
		}
	}
}

func TestTable2And4Rows(t *testing.T) {
	t2 := Table2Rows()
	if len(t2) != 12 {
		t.Fatalf("table2 rows = %d, want 12", len(t2))
	}
	minP, maxP := t2[0].Params, t2[0].Params
	for _, r := range t2 {
		if r.Params < minP {
			minP = r.Params
		}
		if r.Params > maxP {
			maxP = r.Params
		}
	}
	if minP != 5 || maxP != 10 {
		t.Errorf("table2 param range = [%d,%d], want [5,10]", minP, maxP)
	}
	t4 := Table4Rows()
	if len(t4) != 16 {
		t.Fatalf("table4 rows = %d, want 16", len(t4))
	}
}

func TestTable3Runs(t *testing.T) {
	res, err := Table3(context.Background(), tinyReal())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Algorithms) != 2 || len(res.Losses) != 6 {
		t.Fatalf("shape: %d algs × %d losses", len(res.Algorithms), len(res.Losses))
	}
	for _, a := range res.Algorithms {
		for _, l := range res.Losses {
			if res.CalibErrors[a][l] < 0 {
				t.Errorf("negative calibration error for %s/%s", a, l)
			}
		}
	}
	if res.WinnerAlg == "" || res.WinnerLoss == "" {
		t.Error("no winner selected")
	}
}

func TestFigure1Runs(t *testing.T) {
	res, err := Figure1(context.Background(), tinyReal())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no convergence points")
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Loss > res.Points[i-1].Loss {
			t.Fatal("convergence curve not monotone")
		}
	}
}

func TestFigure2Runs(t *testing.T) {
	res, err := Figure2(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 12 {
		t.Fatalf("versions = %d, want 12", len(res.Versions))
	}
	for _, v := range res.Versions {
		if v.AvgError < v.MinError || v.AvgError > v.MaxError {
			t.Errorf("%s: avg %.1f outside [min %.1f, max %.1f]", v.Version, v.AvgError, v.MinError, v.MaxError)
		}
	}
	if res.Best == "" {
		t.Error("no best version")
	}
}

func TestBaseline1SpecWorseThanCalibrated(t *testing.T) {
	o := tinyReal()
	o.MaxEvals = 32
	res, err := Baseline1(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpecError <= 0 {
		t.Error("spec-based error should be positive")
	}
	if res.SpecError < res.CalibratedError {
		t.Errorf("spec-based error (%.1f%%) below calibrated (%.1f%%) — calibration adds nothing?", res.SpecError, res.CalibratedError)
	}
	if len(res.PerGroup) == 0 {
		t.Error("no per-app breakdown")
	}
}

func TestFigure3Runs(t *testing.T) {
	o := tinyReal()
	o.MaxEvals = 8
	res, err := Figure3(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	// 2 worker counts × 2 sizes = 4 single + 3 rect options.
	if len(res.Points) != 7 {
		t.Fatalf("points = %d, want 7", len(res.Points))
	}
	refs := 0
	for _, p := range res.Points {
		if p.Cost <= 0 {
			t.Error("non-positive training cost")
		}
		if p.Reference {
			refs++
		}
	}
	if refs != 1 {
		t.Errorf("reference points = %d, want 1", refs)
	}
}

func TestSection55Runs(t *testing.T) {
	o := tinyReal()
	o.MaxEvals = 8
	res, err := Section55(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRestricted == 0 {
		t.Error("no restricted options evaluated")
	}
	if res.ChainLoss <= 0 || res.ForkjoinLoss <= 0 || res.BothLoss <= 0 {
		t.Error("synthetic-benchmark training losses should be positive")
	}
}

func TestTable5Runs(t *testing.T) {
	res, err := Table5(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Algorithms) != 2 || len(res.Losses) != 4 {
		t.Fatalf("shape: %d algs × %d losses", len(res.Algorithms), len(res.Losses))
	}
	if res.WinnerAlg == "" {
		t.Error("no winner")
	}
}

func TestFigure4Runs(t *testing.T) {
	res, err := Figure4(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
}

func TestFigure5Runs(t *testing.T) {
	o := tiny()
	o.MaxEvals = 8
	res, err := Figure5(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 16 {
		t.Fatalf("versions = %d, want 16", len(res.Versions))
	}
}

func TestBaseline2Runs(t *testing.T) {
	o := tiny()
	o.MaxEvals = 24
	res, err := Baseline2(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpecError <= 0 {
		t.Error("spec error should be positive")
	}
	if len(res.PerGroup) != 3 {
		t.Errorf("per-benchmark entries = %d, want 3", len(res.PerGroup))
	}
}

func TestSection65Runs(t *testing.T) {
	o := tiny()
	o.MaxEvals = 10
	o.Restarts = 2
	started := &countingObserver{}
	o.Observer = started
	res, err := Section65(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	// Two calibrations (from P2P, from Stencil) of Restarts runs each: the
	// cross-scale rows reuse the P2P calibration's point.
	if n := started.started.Load(); n != 4 {
		t.Errorf("%d calibration runs, want 2 calibrations x 2 restarts", n)
	}
	if res.StencilFromP2P <= 0 || res.StencilNative <= 0 {
		t.Error("stencil errors should be positive")
	}
	if len(res.ScaleErrors) != 2 {
		t.Errorf("scale errors = %d, want 2", len(res.ScaleErrors))
	}
	if res.TrainNodes != 2 {
		t.Errorf("train nodes = %d, want 2", res.TrainNodes)
	}
}

func TestAblationAlgorithmsRuns(t *testing.T) {
	o := tinyReal()
	o.MaxEvals = 16
	res, err := AblationAlgorithms(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 7 {
		t.Fatalf("algorithms = %d, want 7", len(res.Order))
	}
	for name, l := range res.Losses {
		if l < 0 {
			t.Errorf("%s: negative loss", name)
		}
	}
	if res.BOSpread < 1 {
		t.Errorf("BOSpread = %v, want >= 1", res.BOSpread)
	}
}

func TestAblationBudgetRuns(t *testing.T) {
	o := tinyReal()
	o.MaxEvals = 64
	res, err := AblationBudget(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Budgets) < 3 {
		t.Fatalf("budgets = %d, want >= 3", len(res.Budgets))
	}
	// Larger budgets cannot end up worse (same seed → prefix property of
	// BO sampling does not strictly hold, but the loss at the largest
	// budget should not exceed the smallest by much; check weak
	// monotonicity of min over the curve instead).
	minLoss := res.Losses[0]
	for _, l := range res.Losses {
		if l < minLoss {
			minLoss = l
		}
	}
	if res.Losses[len(res.Losses)-1] > 10*minLoss && minLoss > 0 {
		t.Errorf("largest budget much worse than best: %v", res.Losses)
	}
}

func TestAblationBudgetRejectsTinyBudget(t *testing.T) {
	o := tinyReal()
	o.MaxEvals = 4
	if _, err := AblationBudget(context.Background(), o); err == nil {
		t.Error("tiny budget accepted")
	}
}

func TestAblationStorageValueRuns(t *testing.T) {
	o := tinyReal()
	o.MaxEvals = 16
	res, err := AblationStorageValue(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{res.DataHeavySubmitOnly, res.DataHeavyAllNodes, res.DataFreeSubmitOnly, res.DataFreeAllNodes} {
		if v < 0 {
			t.Errorf("negative error %v", v)
		}
	}
}

func TestSplitTrainTestDisjoint(t *testing.T) {
	o := tinyReal()
	_, train, test, err := splitDataset(o, o.WFApps)
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Groups) == 0 || len(test.Groups) == 0 {
		t.Fatalf("empty split: train=%d test=%d", len(train.Groups), len(test.Groups))
	}
	keys := map[string]bool{}
	for _, g := range train.Groups {
		keys[g.Key()] = true
	}
	for _, g := range test.Groups {
		if keys[g.Key()] {
			t.Errorf("group %s in both train and test", g.Key())
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	tbl := FormatTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(tbl, "333") || !strings.Contains(tbl, "--") {
		t.Errorf("FormatTable output:\n%s", tbl)
	}
	m := map[string]map[string]float64{"RAND": {"L1": 1.5}}
	s := FormatMatrix("alg", []string{"RAND"}, []string{"L1"}, m)
	if !strings.Contains(s, "1.50") {
		t.Errorf("FormatMatrix output:\n%s", s)
	}
	va := FormatVersionAccuracy([]VersionAccuracy{{Version: "x", Params: 5, AvgError: 1, MinError: 0.5, MaxError: 2}})
	if !strings.Contains(va, "x") {
		t.Error("FormatVersionAccuracy missing version")
	}
	cv := FormatConvergence([]ConvergencePoint{{Evaluations: 1, Loss: 0.5}, {Evaluations: 2, Loss: 0.25}}, 10)
	if !strings.Contains(cv, "0.2500") {
		t.Error("FormatConvergence missing loss")
	}
	f3 := FormatFigure3(&Figure3Result{Points: []Figure3Point{{App: "a", Scheme: "single", Workers: 1, Tasks: 10, Cost: 5, TestLoss: 0.1, Reference: true}}})
	if !strings.Contains(f3, "single") || !strings.Contains(f3, "*") {
		t.Error("FormatFigure3 output wrong")
	}
}

func TestDefaultAndFullOptions(t *testing.T) {
	d := Default()
	if d.MaxEvals <= 0 || len(d.WFApps) == 0 || len(d.MPINodes) == 0 {
		t.Error("Default options incomplete")
	}
	f := Full()
	if f.MaxEvals <= d.MaxEvals {
		t.Error("Full should have a larger budget than Default")
	}
	if f.MPINodes[0] != 128 {
		t.Error("Full should use the paper's 128-node scale")
	}
}

func TestCaseStudy3Runs(t *testing.T) {
	o := tinyReal()
	o.MaxEvals = 20
	res, err := CaseStudy3(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 4 {
		t.Fatalf("versions = %d, want 4", len(res.Versions))
	}
	if res.Best == "" {
		t.Error("no best version")
	}
	// The EASY-with-overheads version (same policy and detail as the
	// reference) must never be the worst.
	worst := res.Versions[0]
	for _, v := range res.Versions {
		if v.AvgError > worst.AvgError {
			worst = v
		}
	}
	if worst.Version == "easy/with-overheads" {
		t.Errorf("reference-detail version is the worst (%v%%)", worst.AvgError)
	}
}
