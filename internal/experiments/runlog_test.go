package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/core"
)

func openLog(t *testing.T, path, meta string) *RunLog {
	t.Helper()
	l, err := OpenRunLog(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestRunLogResumesCompletedCells: cells recorded before a kill are
// served from the log on the next run — none of them recompute.
func TestRunLogResumesCompletedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l := openLog(t, path, "seed=1")
	var ran atomic.Int64
	fn := func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i * 10, nil
	}
	first, err := RunJobsLogged(context.Background(), NewScheduler(3), l, "grid", 6, fn)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 6 {
		t.Fatalf("first pass ran %d cells, want 6", ran.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, path, "seed=1")
	defer l2.Close()
	if l2.Len() != 6 {
		t.Fatalf("reopened log holds %d cells, want 6", l2.Len())
	}
	second, err := RunJobsLogged(context.Background(), nil, l2, "grid", 6, fn)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 6 {
		t.Errorf("resume recomputed %d cells, want 0", ran.Load()-6)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("cell %d: %d vs %d after resume", i, first[i], second[i])
		}
	}
}

// TestRunLogResumesOnlyUnfinishedCells: after a run where some cells
// failed, re-running recomputes exactly the failures.
func TestRunLogResumesOnlyUnfinishedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l := openLog(t, path, "m")
	broken := errors.New("transient infrastructure failure")
	_, err := RunJobsLogged(context.Background(), nil, l, "grid", 6, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, broken
		}
		return i, nil
	})
	if !errors.Is(err, broken) {
		t.Fatalf("err = %v, want the cell failures", err)
	}
	l.Close()

	l2 := openLog(t, path, "m")
	defer l2.Close()
	var reran []int
	results, err := RunJobsLogged(context.Background(), nil, l2, "grid", 6, func(_ context.Context, i int) (int, error) {
		reran = append(reran, i)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reran) != 3 {
		t.Errorf("resume recomputed cells %v, want only the 3 failed ones", reran)
	}
	for i, v := range results {
		if v != i {
			t.Errorf("results[%d] = %d", i, v)
		}
	}
}

// TestRunLogScopesAreIndependent: distinct drivers sharing one log must
// not collide on cell indices.
func TestRunLogScopesAreIndependent(t *testing.T) {
	l := openLog(t, filepath.Join(t.TempDir(), "run.jsonl"), "m")
	defer l.Close()
	if err := l.Store("table3", 0, 111); err != nil {
		t.Fatal(err)
	}
	var got int
	if l.Lookup("figure2", 0, &got) {
		t.Error("figure2/0 served table3/0's value")
	}
	if !l.Lookup("table3", 0, &got) || got != 111 {
		t.Errorf("table3/0 = %d (found=%v), want 111", got, got == 111)
	}
}

// TestRunLogRejectsMismatchedMeta: resume data computed under different
// options must never be served.
func TestRunLogRejectsMismatchedMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	openLog(t, path, "seed=1,maxevals=300").Close()
	if _, err := OpenRunLog(path, "seed=2,maxevals=300"); err == nil {
		t.Fatal("log written under seed=1 reopened under seed=2")
	} else if !strings.Contains(err.Error(), "seed=1") {
		t.Errorf("err = %v, want it to name the conflicting configuration", err)
	}
}

// TestRunLogTruncatesTornTail: the partial line a kill -9 leaves behind
// is dropped; intact cells before it survive.
func TestRunLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l := openLog(t, path, "m")
	for i := 0; i < 3; i++ {
		if err := l.Store("grid", i, i*7); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"cell":"grid/3","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openLog(t, path, "m")
	defer l2.Close()
	if l2.Len() != 3 {
		t.Fatalf("log holds %d cells after torn tail, want 3", l2.Len())
	}
	var got int
	if !l2.Lookup("grid", 2, &got) || got != 14 {
		t.Errorf("grid/2 = %d, want 14", got)
	}
	if l2.Lookup("grid", 3, &got) {
		t.Error("the torn cell grid/3 was served")
	}
	// The truncated log must accept fresh appends cleanly.
	if err := l2.Store("grid", 3, 21); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3 := openLog(t, path, "m")
	defer l3.Close()
	if !l3.Lookup("grid", 3, &got) || got != 21 {
		t.Errorf("grid/3 = %d after re-store, want 21", got)
	}
}

// TestRunLogRejectsMidFileCorruption: damage anywhere but the tail is
// tampering, not a crash footprint — refuse to resume from it.
func TestRunLogRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l := openLog(t, path, "m")
	for i := 0; i < 3; i++ {
		if err := l.Store("grid", i, i); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `{"cell":"grid/1"`, `{#cell#:"grid/1"`, 1)
	if tampered == string(data) {
		t.Fatal("test setup: entry to corrupt not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRunLog(path, "m"); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// TestRunLogNotARunLog: arbitrary JSON files are refused.
func TestRunLogNotARunLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "other.json")
	if err := os.WriteFile(path, []byte("{\"kind\":\"something-else\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRunLog(path, "m"); err == nil {
		t.Fatal("foreign file accepted as run log")
	}
}

// countingObserver counts calibrations started (a resume that serves
// every cell from the log must start none).
type countingObserver struct {
	started atomic.Int64
}

func (c *countingObserver) CalibrationStarted(core.RunInfo)                         { c.started.Add(1) }
func (c *countingObserver) BatchProposed(int)                                       {}
func (c *countingObserver) EvalCompleted(core.Sample, time.Duration, time.Duration) {}
func (c *countingObserver) IncumbentImproved(core.Sample)                           {}
func (c *countingObserver) SurrogateFitted(int, time.Duration)                      {}
func (c *countingObserver) AcquisitionSolved(int, time.Duration, time.Duration)     {}
func (c *countingObserver) CalibrationFinished(*core.Result)                        {}

// TestTable3RunLogResumeDeterminism: the acceptance check at driver
// level — a Table3 grid resumed from its RunLog is output-identical to
// an uninterrupted run and recomputes nothing already logged.
func TestTable3RunLogResumeDeterminism(t *testing.T) {
	ref, err := Table3(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	o := tiny()
	o.RunLog = openLog(t, path, "tiny")
	if _, err := Table3(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o.RunLog.Close()

	// Resume: every table3 cell now comes from the log.
	o2 := tiny()
	obs := &countingObserver{}
	o2.Observer = obs
	o2.RunLog = openLog(t, path, "tiny")
	defer o2.RunLog.Close()
	got, err := Table3(context.Background(), o2)
	if err != nil {
		t.Fatal(err)
	}
	if n := obs.started.Load(); n != 0 {
		t.Errorf("resume started %d fresh calibrations, want 0", n)
	}
	if got.WinnerAlg != ref.WinnerAlg || got.WinnerLoss != ref.WinnerLoss {
		t.Errorf("winner (%s, %s) after resume, want (%s, %s)",
			got.WinnerAlg, got.WinnerLoss, ref.WinnerAlg, ref.WinnerLoss)
	}
	for alg, row := range ref.CalibErrors {
		for kind, want := range row {
			if gotv := got.CalibErrors[alg][kind]; gotv != want {
				t.Errorf("CalibErrors[%s][%s] = %v after resume, want %v", alg, kind, gotv, want)
			}
		}
	}
}

// TestTable3RecomputesPastAParentRunLog: a -checkpoint log written before
// Table 3's cell became the selection matrix's {CE, RE} holds bare floats
// under table3/<i>. They no longer decode into the cell, so Lookup
// misses, every cell recomputes, and the result is the uninterrupted
// one — never a zero-filled matrix. (Table 5's cells were {CE, RE}
// already and still resume.)
func TestTable3RecomputesPastAParentRunLog(t *testing.T) {
	ref, err := Table3(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	o := tiny()
	o.RunLog = openLog(t, filepath.Join(t.TempDir(), "run.jsonl"), "tiny")
	defer o.RunLog.Close()
	cells := len(ref.Algorithms) * len(ref.Losses)
	for i := 0; i < cells; i++ {
		if err := o.RunLog.Store("table3", i, 123.5); err != nil {
			t.Fatal(err)
		}
	}
	obs := &countingObserver{}
	o.Observer = obs
	got, err := Table3(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if n := obs.started.Load(); n != int64(cells) {
		t.Errorf("%d calibrations ran over the parent's log, want all %d", n, cells)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("Table3 over a parent-format log:\n got %+v\nwant %+v", got, ref)
	}
}
