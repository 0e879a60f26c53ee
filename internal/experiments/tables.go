package experiments

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"simcal/internal/mpisim"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// Table1Row describes one application's benchmark grid.
type Table1Row struct {
	App          wfgen.App
	Sizes        []int
	WorkSeconds  []float64
	FootprintsMB []float64
	// Generated confirms every size generates a valid workflow of
	// exactly that size.
	Generated bool
}

// WorkloadTable is the paper's Table 1.
type WorkloadTable []Table1Row

// Table1Rows reproduces the paper's Table 1 and validates every
// configuration by generating it.
func Table1Rows() WorkloadTable {
	var rows WorkloadTable
	for _, app := range wfgen.AllApps {
		spec := wfgen.Table1[app]
		row := Table1Row{App: app, Sizes: spec.Sizes, WorkSeconds: spec.WorkSeconds, FootprintsMB: spec.FootprintsMB, Generated: true}
		for _, n := range spec.Sizes {
			w := wfgen.Generate(wfgen.Spec{App: app, Tasks: n, WorkSeconds: 1, FootprintBytes: 150 * wfgen.MB})
			if w.Size() != n || w.Validate() != nil {
				row.Generated = false
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// VersionRow describes one level-of-detail simulator version (a row of
// Table 2 or Table 4).
type VersionRow struct {
	Version string
	Params  int
	Names   []string
}

// VersionTable lists a simulator's versions and their calibratable
// parameters (Tables 2 and 4).
type VersionTable []VersionRow

func versionRows[V version](versions []V) VersionTable {
	var rows VersionTable
	for _, v := range versions {
		sp := v.Space()
		row := VersionRow{Version: v.Name(), Params: sp.Dim()}
		for _, s := range sp {
			row.Names = append(row.Names, s.Name)
		}
		rows = append(rows, row)
	}
	return rows
}

// Table2Rows enumerates the 12 workflow simulator versions and their
// calibratable parameters.
func Table2Rows() VersionTable { return versionRows(wfsim.AllVersions()) }

// Table4Rows enumerates the 16 MPI simulator versions and their
// calibratable parameters.
func Table4Rows() VersionTable { return versionRows(mpisim.AllVersions()) }

// FormatTable renders rows of cells as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	var sep []string
	for _, w := range width {
		sep = append(sep, strings.Repeat("-", w))
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// FormatMatrix renders a map[alg]map[loss]float64 as a table with one
// row per algorithm.
func FormatMatrix(title string, algs, losses []string, m map[string]map[string]float64) string {
	header := append([]string{title}, losses...)
	var rows [][]string
	for _, a := range algs {
		row := []string{a}
		for _, l := range losses {
			row = append(row, fmt.Sprintf("%.2f", m[a][l]))
		}
		rows = append(rows, row)
	}
	return FormatTable(header, rows)
}

// FormatVersionAccuracy renders Figure 2 / Figure 5-style results.
func FormatVersionAccuracy(vs []VersionAccuracy) string {
	header := []string{"version", "params", "avg%err", "min%err", "max%err", "train-loss", "sim-µs"}
	var rows [][]string
	for _, v := range vs {
		rows = append(rows, []string{
			v.Version,
			fmt.Sprintf("%d", v.Params),
			fmt.Sprintf("%.1f", v.AvgError),
			fmt.Sprintf("%.1f", v.MinError),
			fmt.Sprintf("%.1f", v.MaxError),
			fmt.Sprintf("%.4f", v.TrainLoss),
			fmt.Sprintf("%.0f", v.SimMicros),
		})
	}
	return FormatTable(header, rows)
}

// FormatConvergence renders a loss-vs-time curve, subsampled.
func FormatConvergence(points []ConvergencePoint, maxRows int) string {
	header := []string{"evals", "elapsed", "best-loss"}
	var rows [][]string
	stride := 1
	if maxRows > 0 && len(points) > maxRows {
		stride = len(points)/maxRows + 1
	}
	row := func(p ConvergencePoint) {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Evaluations),
			p.Elapsed.Round(1000000).String(),
			fmt.Sprintf("%.4f", p.Loss),
		})
	}
	for i := 0; i < len(points); i += stride {
		row(points[i])
	}
	if len(points) > 0 && (len(points)-1)%stride != 0 {
		row(points[len(points)-1])
	}
	return FormatTable(header, rows)
}

// FormatFigure3 renders the training-cost-vs-loss scatter as rows sorted
// by cost.
func FormatFigure3(r *Figure3Result) string {
	pts := append([]Figure3Point(nil), r.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Cost < pts[j].Cost })
	header := []string{"app", "scheme", "workers", "tasks", "cost(s)", "test-loss", "ref"}
	var rows [][]string
	for _, p := range pts {
		ref := ""
		if p.Reference {
			ref = "*"
		}
		rows = append(rows, []string{
			string(p.App), p.Scheme,
			fmt.Sprintf("%d", p.Workers), fmt.Sprintf("%d", p.Tasks),
			fmt.Sprintf("%.0f", p.Cost), fmt.Sprintf("%.4f", p.TestLoss), ref,
		})
	}
	return FormatTable(header, rows)
}

// The console rendering of every artifact result.

func (t WorkloadTable) WriteText(w io.Writer) {
	var rows [][]string
	for _, r := range t {
		rows = append(rows, []string{
			string(r.App),
			commaList(r.Sizes),
			commaList(r.WorkSeconds),
			commaList(r.FootprintsMB),
			fmt.Sprintf("%v", r.Generated),
		})
	}
	fmt.Fprint(w, FormatTable(
		[]string{"application", "sizes(#tasks)", "work/task(s)", "footprints(MB)", "generated"}, rows))
}

func (t VersionTable) WriteText(w io.Writer) {
	var rows [][]string
	for _, r := range t {
		rows = append(rows, []string{r.Version, fmt.Sprintf("%d", r.Params), strings.Join(r.Names, ",")})
	}
	fmt.Fprint(w, FormatTable([]string{"version", "#params", "parameters"}, rows))
}

func (res *SelectionResult) WriteText(w io.Writer) {
	if res.RateErrors == nil {
		fmt.Fprint(w, FormatMatrix("calib-err", res.Algorithms, res.Losses, res.CalibErrors))
	} else {
		fmt.Fprintln(w, "calibration error:")
		fmt.Fprint(w, FormatMatrix("alg", res.Algorithms, res.Losses, res.CalibErrors))
		fmt.Fprintln(w, "relative avg transfer-rate error:")
		fmt.Fprint(w, FormatMatrix("alg", res.Algorithms, res.Losses, res.RateErrors))
	}
	fmt.Fprintf(w, "winner: %s with %s\n", res.WinnerAlg, res.WinnerLoss)
}

func (res *ConvergenceResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "loss vs time, %s\n", res.Dataset)
	fmt.Fprint(w, FormatConvergence(res.Points, 20))
}

func (res *LoDResult) WriteText(w io.Writer) {
	fmt.Fprint(w, FormatVersionAccuracy(res.Versions))
	fmt.Fprintf(w, "best version: %s\n", res.Best)
}

func (res *BaselineResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "spec-based error:  %.1f%%\ncalibrated error:  %.1f%%\n", res.SpecError, res.CalibratedError)
	for _, g := range slices.Sorted(maps.Keys(res.PerGroup)) {
		fmt.Fprintf(w, "  %-14s %.1f%%\n", g, res.PerGroup[g])
	}
}

func (res *Figure3Result) WriteText(w io.Writer) { fmt.Fprint(w, FormatFigure3(res)) }

func (res *Section55Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "baseline (diverse) test loss: %.4f\n", res.BaselineLoss)
	fmt.Fprintf(w, "restricted options worse:     %d/%d\n", res.WorseCount, res.TotalRestricted)
	for _, k := range slices.Sorted(maps.Keys(res.RestrictedLosses)) {
		fmt.Fprintf(w, "  %-28s %.4f\n", k, res.RestrictedLosses[k])
	}
	fmt.Fprintf(w, "chain-only: %.4f  forkjoin-only: %.4f  both: %.4f\n", res.ChainLoss, res.ForkjoinLoss, res.BothLoss)
}

func (res *Section65Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Stencil error from P2P calibration:    %.1f%%\n", res.StencilFromP2P)
	fmt.Fprintf(w, "Stencil error from native calibration: %.1f%%\n", res.StencilNative)
	for _, n := range slices.Sorted(maps.Keys(res.ScaleErrors)) {
		tag := ""
		if n == res.TrainNodes {
			tag = " (training scale)"
		}
		fmt.Fprintf(w, "  %4d nodes: %.1f%%%s\n", n, res.ScaleErrors[n], tag)
	}
}

func (res *AblationAlgResult) WriteText(w io.Writer) {
	for _, name := range res.Order {
		fmt.Fprintf(w, "  %-8s best loss %.4f\n", name, res.Losses[name])
	}
	fmt.Fprintf(w, "BO-variant spread (max/min): %.2fx\n", res.BOSpread)
}

func (res *AblationBudgetResult) WriteText(w io.Writer) {
	for i, budget := range res.Budgets {
		fmt.Fprintf(w, "  %5d evals: best loss %.4f\n", budget, res.Losses[i])
	}
}

func (res *AblationStorageValueResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "data-heavy workloads: submit-only %.1f%%, all-nodes %.1f%%\n",
		res.DataHeavySubmitOnly, res.DataHeavyAllNodes)
	fmt.Fprintf(w, "data-free  workloads: submit-only %.1f%%, all-nodes %.1f%%\n",
		res.DataFreeSubmitOnly, res.DataFreeAllNodes)
}

func (res *FaultsResult) WriteText(w io.Writer) {
	fmt.Fprintln(w, "calibration-error degradation vs injected fault rate:")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  rate %4.0f%%: calib-err %6.1f%%  evals %d  injected %d (panic %d, hang %d, transient %d, nan %d)  recovered: panics %d, retries %d, timeouts %d\n",
			100*r.Rate, r.CalibError, r.Evaluations, r.Injected.Total(),
			r.Injected.Panics, r.Injected.Hangs, r.Injected.Transients, r.Injected.NaNs,
			r.PanicsRecovered, r.Retries, r.Timeouts)
	}
}

// commaList joins the default formatting of xs with commas.
func commaList[T any](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}
