package core

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// frozenClock returns an injectable clock stuck at a fixed instant, so
// every Sample.Elapsed is exactly zero and results from separate runs
// can be compared bitwise.
func frozenClock() func() time.Time {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time { return t0 }
}

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Algorithm: "test-random",
		Seed:      42,
		Space:     []string{"x", "y"},
		Elapsed:   30 * time.Millisecond,
		Samples: []Sample{
			{Unit: []float64{0.1234567890123456, 0.5}, Loss: 0.25, Elapsed: 10 * time.Millisecond},
			{Unit: []float64{0.25, 0.75}, Loss: math.Inf(1), Elapsed: 20 * time.Millisecond},
			{Unit: []float64{1.0 / 3.0, 2.0 / 3.0}, Loss: math.NaN(), Elapsed: 30 * time.Millisecond},
		},
	}
}

// journalText writes ck as the journal a run would leave behind: the
// header, each consumed sample's submission and consumption in
// consumption order, then the in-flight submissions.
func journalText(ck *Checkpoint) string {
	hdr, _ := json.Marshal(journalHeader{Kind: journalKind, Algorithm: ck.Algorithm, Seed: ck.Seed, Space: ck.Space})
	b := append(hdr, '\n')
	for i, s := range ck.Samples {
		seq := i
		if len(ck.Order) > 0 {
			seq = ck.Order[i]
		}
		b = append(appendSubmitLine(b, seq, s.Unit), '\n')
		b = append(appendConsumeLine(b, seq, s.Loss, s.Elapsed), '\n')
	}
	for _, rec := range ck.InFlight {
		b = append(appendSubmitLine(b, rec.Seq, rec.Unit), '\n')
	}
	return string(b)
}

func TestCheckpointRoundTripBitwise(t *testing.T) {
	ck := sampleCheckpoint()
	got, err := ReadJournal(strings.NewReader(journalText(ck)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != ck.Algorithm || got.Seed != ck.Seed || len(got.Samples) != len(ck.Samples) || got.Elapsed != ck.Elapsed {
		t.Errorf("header mismatch: %+v vs %+v", got, ck)
	}
	if len(got.Space) != len(ck.Space) || got.Space[0] != "x" || got.Space[1] != "y" {
		t.Errorf("space mismatch: %v", got.Space)
	}
	if len(got.Order) != 3 || got.Order[0] != 0 || got.Order[2] != 2 || len(got.InFlight) != 0 {
		t.Errorf("a batch journal reads back with order %v and in flight %v, want the identity and none", got.Order, got.InFlight)
	}
	for i, want := range ck.Samples {
		s := got.Samples[i]
		for j := range want.Unit {
			if s.Unit[j] != want.Unit[j] {
				t.Errorf("sample %d unit[%d]: %v != %v (not bitwise)", i, j, s.Unit[j], want.Unit[j])
			}
		}
		if s.Point != nil {
			t.Errorf("sample %d has a point; the journal does not store one", i)
		}
		if s.Loss != want.Loss && !(math.IsNaN(s.Loss) && math.IsNaN(want.Loss)) {
			t.Errorf("sample %d loss: %v != %v", i, s.Loss, want.Loss)
		}
		if s.Elapsed != want.Elapsed {
			t.Errorf("sample %d elapsed: %v != %v", i, s.Elapsed, want.Elapsed)
		}
	}
}

func TestCheckpointWriteFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.json")
	for _, content := range []string{"first version\n", "second\n"} {
		if err := WriteFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second\n" {
		t.Errorf("after two writes the file holds %q (%v), want the second", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp files left behind: %v", entries)
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	_, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.json"))
	if !os.IsNotExist(errUnwrapAll(err)) {
		t.Errorf("missing file error not preserved: %v", err)
	}
}

// errUnwrapAll unwraps to the innermost error for os.IsNotExist.
func errUnwrapAll(err error) error {
	for {
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return err
		}
		inner := u.Unwrap()
		if inner == nil {
			return err
		}
		err = inner
	}
}

// A corrupt record is an error anywhere but on the last line, where it
// is what a kill mid-write leaves: every case below is followed by one
// more intact line.
func TestReadCheckpointRejectsCorruptDocuments(t *testing.T) {
	valid := journalText(sampleCheckpoint())
	header, _, _ := strings.Cut(valid, "\n")
	body := strings.TrimPrefix(valid, header+"\n")
	tail := `{"submit":9,"unit":[0.5,0.5]}` + "\n"
	cases := map[string]string{
		"empty":                  "",
		"not json":               "calibration went great\n",
		"header without newline": header,
		"wrong kind":             strings.Replace(valid, journalKind, "simcal-calibration-result", 1),
		"no algorithm":           strings.Replace(valid, `"algorithm":"test-random"`, `"algorithm":""`, 1),
		"no space":               strings.Replace(valid, `"space":["x","y"]`, `"space":[]`, 1),
		"mid-file garbage":       header + "\n{#submit#:0}\n" + body,
		"negative elapsed":       strings.Replace(valid, `"elapsedNanos":10000000`, `"elapsedNanos":-5`, 1) + tail,
		"bad sentinel":           strings.Replace(valid, `"NaN"`, `"Nope"`, 1) + tail,
		"dimension mismatch":     strings.Replace(valid, `"unit":[0.25,0.75]`, `"unit":[0.25]`, 1),
		"non-finite unit":        strings.Replace(valid, `"unit":[0.25,0.75]`, `"unit":[1e999,0.75]`, 1),
		"neither record kind":    header + "\n{\"seq\":0}\n" + body,
		"submission and loss":    header + "\n{\"submit\":7,\"unit\":[0.5,0.5],\"loss\":1}\n" + body,
		"consumption never made": header + "\n{\"consume\":7,\"loss\":1,\"elapsedNanos\":0}\n" + body,
	}
	for name, doc := range cases {
		if _, err := ReadJournal(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: corrupt journal accepted", name)
		}
	}
}

// TestSnapshotCheckpointIsNamed: the one-document snapshot an earlier
// version wrote is refused with an error that says what it is.
func TestSnapshotCheckpointIsNamed(t *testing.T) {
	old := `{"kind":"simcal-calibration-checkpoint","algorithm":"RAND","seed":7,"space":["x"],"evaluations":0,"elapsedNanos":0,"samples":[]}` + "\n"
	_, err := ReadJournal(strings.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "snapshot checkpoint") {
		t.Fatalf("old snapshot: err = %v, want one naming the snapshot format", err)
	}
}

// TestJournalTornTail: a kill mid-append leaves a partial last line. The
// reader ignores it, OpenJournal truncates it, and appends continue on
// a clean line boundary.
func TestJournalTornTail(t *testing.T) {
	valid := journalText(sampleCheckpoint())
	for name, torn := range map[string]string{
		"unterminated":         `{"submit":3,"unit":[0.5`,
		"terminated but bogus": `{"submit":3,"unit":[0.5` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.jsonl")
			if err := os.WriteFile(path, []byte(valid+torn), 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := LoadCheckpoint(path)
			if err != nil || len(ck.Samples) != 3 || len(ck.InFlight) != 0 {
				t.Fatalf("torn journal read as %+v, %v; want the three intact samples", ck, err)
			}
			s := newJournalState(nil)
			j, err := OpenJournal(path, nil, s.header, s.record)
			if err != nil {
				t.Fatal(err)
			}
			j.Append(appendSubmitLine(nil, 3, []float64{0.5, 0.5}))
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			ck, err = LoadCheckpoint(path)
			if err != nil || len(ck.InFlight) != 1 || ck.InFlight[0].Seq != 3 {
				t.Fatalf("appended after the torn tail: %+v, %v; want submission 3 in flight", ck, err)
			}
		})
	}
}

// countingSim wraps an Evaluator and counts real invocations, so resume
// tests can prove replayed evaluations never touch the simulator.
type countingSim struct {
	inner Evaluator
	calls atomic.Int64
}

func (c *countingSim) Run(ctx context.Context, p Point) (float64, error) {
	c.calls.Add(1)
	return c.inner(ctx, p)
}

// resultsIdentical compares two results bitwise (assuming a frozen
// clock zeroed all elapsed fields).
func resultsIdentical(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Evaluations != b.Evaluations {
		t.Fatalf("Evaluations: %d vs %d", a.Evaluations, b.Evaluations)
	}
	if a.Best.Loss != b.Best.Loss {
		t.Fatalf("Best.Loss: %v vs %v", a.Best.Loss, b.Best.Loss)
	}
	for k, v := range a.Best.Point {
		if b.Best.Point[k] != v {
			t.Fatalf("Best.Point[%q]: %v vs %v", k, v, b.Best.Point[k])
		}
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("history length: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		x, y := a.History[i], b.History[i]
		if x.Loss != y.Loss || x.Elapsed != y.Elapsed {
			t.Fatalf("history[%d]: loss %v/%v elapsed %v/%v", i, x.Loss, y.Loss, x.Elapsed, y.Elapsed)
		}
		for j := range x.Unit {
			if x.Unit[j] != y.Unit[j] {
				t.Fatalf("history[%d].Unit[%d]: %v vs %v (not bitwise)", i, j, x.Unit[j], y.Unit[j])
			}
		}
		for k, v := range x.Point {
			if y.Point[k] != v {
				t.Fatalf("history[%d].Point[%q]: %v vs %v", i, k, v, y.Point[k])
			}
		}
	}
	ta, la := a.LossOverTime()
	tb, lb := b.LossOverTime()
	for i := range la {
		if la[i] != lb[i] || ta[i] != tb[i] {
			t.Fatalf("loss-over-time[%d] differs", i)
		}
	}
}

func TestCheckpointResumeBitwiseIdentical(t *testing.T) {
	optimum := Point{"x": 3, "y": 7}
	clock := frozenClock()
	base := func(sim Simulator) *Calibrator {
		return &Calibrator{
			Space:          testSpace,
			Simulator:      sim,
			Algorithm:      randomSearch{batch: 4},
			MaxEvaluations: 40,
			Workers:        1,
			Seed:           42,
			Clock:          clock,
		}
	}

	// Reference: one uninterrupted, journaled run to the full budget.
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	refCal := base(sphereLoss(optimum))
	refCal.Checkpoint = refPath
	ref, err := refCal.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// "Killed" run: budget cut to 16 — the journal on disk afterwards is
	// what a kill -9 after the 16th evaluation leaves behind.
	path := filepath.Join(dir, "ck.jsonl")
	killed := base(sphereLoss(optimum))
	killed.MaxEvaluations = 16
	killed.Checkpoint = path
	if _, err := killed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Samples) != 16 {
		t.Fatalf("journal holds %d evaluations, want 16", len(snap.Samples))
	}

	// Resume to the full budget, appending to the same journal; the first
	// 16 evaluations must come from it, not the simulator.
	sim := &countingSim{inner: sphereLoss(optimum)}
	obs := &recordingFaultObserver{}
	resumed := base(sim)
	resumed.Resume = snap
	resumed.Checkpoint = path
	resumed.Observer = obs
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.calls.Load(); got != 40-16 {
		t.Errorf("resumed run invoked the simulator %d times, want %d (replay must not re-simulate)", got, 40-16)
	}
	resultsIdentical(t, ref, res)
	// Replay adds no lines, so the first sync is the first new batch's.
	if syncs := obs.checkpoints(); len(syncs) == 0 || syncs[0] != 20 {
		t.Errorf("resumed run synced its journal at %v, want first at 20: replayed lines are not written again", syncs)
	}
	// The resumed run appended only what the journal lacked: the file is
	// the uninterrupted run's, byte for byte.
	want, _ := os.ReadFile(refPath)
	if got, _ := os.ReadFile(path); string(got) != string(want) {
		t.Errorf("resumed journal differs from the uninterrupted run's:\n got %s\nwant %s", got, want)
	}
}

// TestJournalBytesPerEvaluationConstant: an evaluation costs the journal
// one submission and one consumption line, however long the history
// already is. Only the sequence number's digits grow.
func TestJournalBytesPerEvaluationConstant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	sizes := map[int]int64{}
	obs := &sizeObserver{path: path, sizes: sizes}
	c := &Calibrator{
		Space:     testSpace,
		Simulator: Evaluator(func(context.Context, Point) (float64, error) { return 0.5, nil }),
		Algorithm: &probeAsync{fn: func(ctx context.Context, prob *Problem) error {
			for {
				if _, err := prob.Evaluate(ctx, [][]float64{{0.5, 0.25}}); err != nil {
					return err
				}
			}
		}},
		MaxEvaluations: 301,
		Workers:        1,
		Seed:           1,
		Clock:          frozenClock(),
		Observer:       obs,
		Checkpoint:     path,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Evaluation k (seq k) is what the sync after k+1 evaluations adds.
	perEval := func(k int) int64 { return sizes[k+1] - sizes[k] }
	at10, at300 := perEval(10), perEval(300)
	if at10 <= 0 || at300-at10 != 2*int64(len("300")-len("10")) {
		t.Errorf("journal bytes per evaluation: %d at history 10, %d at history 300; want equal up to the seq's extra digit on two lines", at10, at300)
	}
}

// sizeObserver records the journal's size at every sync.
type sizeObserver struct {
	recordingFaultObserver
	path  string
	sizes map[int]int64
}

func (o *sizeObserver) CheckpointWritten(evaluations int) {
	if fi, err := os.Stat(o.path); err == nil {
		o.sizes[evaluations] = fi.Size()
	}
}

func TestResumeContinuesElapsedOffset(t *testing.T) {
	clock := frozenClock()
	snapElapsed := 90 * time.Second
	// Build a journal by running 8 evals, then hand-set its elapsed
	// offset to something noticeable.
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 1, "y": 1}),
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 8,
		Workers:        1,
		Seed:           9,
		Clock:          clock,
		Checkpoint:     path,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	snap.Elapsed = snapElapsed

	resumed := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 1, "y": 1}),
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 12,
		Workers:        1,
		Seed:           9,
		Clock:          clock,
		Resume:         snap,
	}
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// With a frozen clock, post-replay samples sit exactly at the
	// snapshot offset: elapsed = offset + (0 wall time since resume).
	for i, s := range res.History[8:] {
		if s.Elapsed != snapElapsed {
			t.Errorf("post-resume history[%d].Elapsed = %v, want the %v snapshot offset", 8+i, s.Elapsed, snapElapsed)
		}
	}
	if res.Elapsed != snapElapsed {
		t.Errorf("Result.Elapsed = %v, want continuation from %v", res.Elapsed, snapElapsed)
	}
}

func TestResumeValidation(t *testing.T) {
	snap := func() *Checkpoint {
		return &Checkpoint{Algorithm: "test-random", Seed: 42, Space: []string{"x", "y"}}
	}
	base := func() *Calibrator {
		return &Calibrator{
			Space:          testSpace,
			Simulator:      sphereLoss(Point{"x": 1, "y": 1}),
			Algorithm:      randomSearch{},
			MaxEvaluations: 8,
			Seed:           42,
		}
	}
	cases := map[string]func(*Checkpoint){
		"wrong algorithm":   func(ck *Checkpoint) { ck.Algorithm = "GRID" },
		"wrong seed":        func(ck *Checkpoint) { ck.Seed = 7 },
		"wrong space names": func(ck *Checkpoint) { ck.Space = []string{"x", "z"} },
		"wrong space size":  func(ck *Checkpoint) { ck.Space = []string{"x"} },
		"order too short":   func(ck *Checkpoint) { ck.Order = []int{0} },
	}
	for name, corrupt := range cases {
		c := base()
		ck := snap()
		corrupt(ck)
		c.Resume = ck
		if _, err := c.Run(context.Background()); err == nil {
			t.Errorf("%s: mismatched resume checkpoint accepted", name)
		}
	}
	c := base()
	c.Resume = snap()
	if _, err := c.Run(context.Background()); err != nil {
		t.Errorf("matching empty checkpoint rejected: %v", err)
	}
}

func TestResumeDivergenceDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 1, "y": 1}),
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 8,
		Workers:        1,
		Seed:           11,
		Checkpoint:     path,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	snap.Samples[2].Unit[0] = 0.123456 // not what the seeded algorithm proposes
	resumed := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 1, "y": 1}),
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 16,
		Workers:        1,
		Seed:           11,
		Resume:         snap,
	}
	_, err = resumed.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered checkpoint not detected: err = %v", err)
	}
}

func TestCheckpointEveryBatchBoundaries(t *testing.T) {
	// Batch 4: the journal syncs at the end of every batch, and only
	// there — evals 4, 8, …, 40.
	obs := &recordingFaultObserver{}
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 1, "y": 1}),
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 40,
		Workers:        2,
		Seed:           13,
		Observer:       obs,
		Checkpoint:     path,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	written := obs.checkpoints()
	if len(written) != 10 {
		t.Fatalf("journal synced at %v, want every batch end 4…40", written)
	}
	for i, evals := range written {
		if evals != 4*(i+1) {
			t.Fatalf("journal synced at %v, want every batch end 4…40", written)
		}
	}
}
