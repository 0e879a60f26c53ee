package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// journalFixture is a journal's content in the shape tests build it:
// the identity, the consumed samples in consumption order with each
// one's seq (order; empty means 0, 1, …), the submissions still in
// flight, and a job's header field and closing record (nil for none).
type journalFixture struct {
	alg      string
	seed     int64
	space    []string
	samples  []Sample
	order    []int
	inFlight map[int][]float64
	job, end json.RawMessage
}

func sampleJournal() *journalFixture {
	return &journalFixture{
		alg:   "test-random",
		seed:  42,
		space: []string{"x", "y"},
		samples: []Sample{
			{Unit: []float64{0.1234567890123456, 0.5}, Loss: 0.25, Elapsed: 10 * time.Millisecond},
			{Unit: []float64{0.25, 0.75}, Loss: math.Inf(1), Elapsed: 20 * time.Millisecond},
			{Unit: []float64{1.0 / 3.0, 2.0 / 3.0}, Loss: math.NaN(), Elapsed: 30 * time.Millisecond},
		},
	}
}

// journalText writes fx as the journal a run would leave behind: the
// header, each consumed sample's submission and consumption in
// consumption order, the in-flight submissions by seq, then the closing
// line.
func journalText(fx *journalFixture) string {
	hdr, _ := json.Marshal(journalHeader{Kind: journalKind, Algorithm: fx.alg, Seed: fx.seed, Space: fx.space, Job: fx.job})
	b := append(hdr, '\n')
	for i, s := range fx.samples {
		seq := i
		if len(fx.order) > 0 {
			seq = fx.order[i]
		}
		b = append(appendSubmitLine(b, seq, s.Unit), '\n')
		b = append(appendConsumeLine(b, seq, s.Loss, s.Elapsed), '\n')
	}
	for _, seq := range slices.Sorted(maps.Keys(fx.inFlight)) {
		b = append(appendSubmitLine(b, seq, fx.inFlight[seq]), '\n')
	}
	if fx.end != nil {
		end, _ := json.Marshal(map[string]json.RawMessage{"end": fx.end})
		b = append(append(b, end...), '\n')
	}
	return string(b)
}

// fixtureOf is what the index s holds, as a fixture.
func fixtureOf(s journalState) *journalFixture {
	fx := &journalFixture{alg: s.hdr.Algorithm, seed: s.hdr.Seed, space: s.hdr.Space, order: s.order, inFlight: map[int][]float64{},
		job: s.hdr.Job, end: s.end}
	for _, seq := range s.order {
		c := s.consumed[seq]
		fx.samples = append(fx.samples, Sample{Unit: s.units[seq], Loss: c.loss, Elapsed: c.elapsed})
	}
	for seq, unit := range s.units {
		if _, ok := s.consumed[seq]; !ok {
			fx.inFlight[seq] = unit
		}
	}
	return fx
}

// loadJournal indexes the journal file at path.
func loadJournal(t *testing.T, path string) *journalFixture {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := readJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	return fixtureOf(s)
}

func writeJournal(t *testing.T, path string, fx *journalFixture) {
	t.Helper()
	if err := os.WriteFile(path, []byte(journalText(fx)), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTripBitwise(t *testing.T) {
	ck := sampleJournal()
	s, err := readJournal([]byte(journalText(ck)))
	if err != nil {
		t.Fatal(err)
	}
	got := fixtureOf(s)
	if got.alg != ck.alg || got.seed != ck.seed || len(got.samples) != len(ck.samples) || s.elapsed != 30*time.Millisecond {
		t.Errorf("header mismatch: %+v vs %+v", got, ck)
	}
	if !slices.Equal(got.space, []string{"x", "y"}) {
		t.Errorf("space mismatch: %v", got.space)
	}
	if !slices.Equal(got.order, []int{0, 1, 2}) || len(got.inFlight) != 0 {
		t.Errorf("a batch journal reads back with order %v and in flight %v, want the identity and none", got.order, got.inFlight)
	}
	for i, want := range ck.samples {
		s := got.samples[i]
		for j := range want.Unit {
			if s.Unit[j] != want.Unit[j] {
				t.Errorf("sample %d unit[%d]: %v != %v (not bitwise)", i, j, s.Unit[j], want.Unit[j])
			}
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

// TestLoadCheckpointMissingFile: resuming a journal that is not there
// is a fresh run, which creates it.
func TestLoadCheckpointMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.jsonl")
	sim := &countingSim{inner: sphereLoss(Point{"x": 1, "y": 1})}
	obs := &recordingObserver{}
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 8,
		Seed:           42,
		Observer:       obs,
		Checkpoint:     path,
		Resume:         true,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := sim.calls.Load(); n != 8 || obs.started.Resumed != 0 {
		t.Errorf("simulated %d evaluations, resumed %d; want a fresh run of 8", n, obs.started.Resumed)
	}
	if got := loadJournal(t, path); len(got.samples) != 8 {
		t.Errorf("the created journal holds %d consumptions, want 8", len(got.samples))
	}
}

// A corrupt record is an error anywhere but on the last line, where it
// is what a kill mid-write leaves: every case below is followed by one
// more intact line.
func TestReadCheckpointRejectsCorruptDocuments(t *testing.T) {
	valid := journalText(sampleJournal())
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
		if _, err := readJournal([]byte(doc)); err == nil {
			t.Errorf("%s: corrupt journal accepted", name)
		}
	}
}

// TestSnapshotCheckpointIsNamed: the one-document snapshot an earlier
// version wrote is refused with an error that says what it is.
func TestSnapshotCheckpointIsNamed(t *testing.T) {
	old := `{"kind":"simcal-calibration-checkpoint","algorithm":"RAND","seed":7,"space":["x"],"evaluations":0,"elapsedNanos":0,"samples":[]}` + "\n"
	_, err := readJournal([]byte(old))
	if err == nil || !strings.Contains(err.Error(), "snapshot checkpoint") {
		t.Fatalf("old snapshot: err = %v, want one naming the snapshot format", err)
	}
}

// TestJournalTornTail: a kill mid-append leaves a partial last line. The
// reader ignores it, OpenJournal truncates it, and appends continue on
// a clean line boundary.
func TestJournalTornTail(t *testing.T) {
	valid := journalText(sampleJournal())
	for name, torn := range map[string]string{
		"unterminated":         `{"submit":3,"unit":[0.5`,
		"terminated but bogus": `{"submit":3,"unit":[0.5` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.jsonl")
			if err := os.WriteFile(path, []byte(valid+torn), 0o644); err != nil {
				t.Fatal(err)
			}
			if ck := loadJournal(t, path); len(ck.samples) != 3 || len(ck.inFlight) != 0 {
				t.Fatalf("torn journal read as %+v; want the three intact samples", ck)
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
			if ck := loadJournal(t, path); len(ck.inFlight) != 1 || ck.inFlight[3] == nil {
				t.Fatalf("appended after the torn tail: %+v; want submission 3 in flight", ck)
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

// journalMatches fails unless the journal holds res's history, in
// order and bit for bit, and so rebuilds its best-loss-vs-time curve.
func journalMatches(t *testing.T, jr *JournalRun, res *Result) {
	t.Helper()
	if len(jr.History) != len(res.History) || len(jr.Order) != len(res.History) {
		t.Fatalf("journal holds %d consumptions (%d in its order), the run %d", len(jr.History), len(jr.Order), len(res.History))
	}
	for i, s := range res.History {
		j := jr.History[i]
		if math.Float64bits(j.Loss) != math.Float64bits(s.Loss) || j.Elapsed != s.Elapsed ||
			!slices.EqualFunc(j.Unit, s.Unit, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("consumption %d: journal %+v, run %+v", i, j, s)
		}
	}
	ta, la := (&Result{History: jr.History}).LossOverTime()
	tb, lb := res.LossOverTime()
	if !slices.Equal(ta, tb) || !slices.EqualFunc(la, lb, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatal("the journal's loss-over-time curve differs from the run's")
	}
}

// TestJournalReplayMatchesLossOverTime: ReadJournal alone gives the
// run's identity and its best-loss-vs-time curve bit for bit (what
// simcal -replay prints). It skips a torn last line and leaves the file
// as it found it, and with a run to check against it refuses another
// run's journal with resume's error.
func TestJournalReplayMatchesLossOverTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 4, "y": 6}),
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 48,
		Workers:        3,
		Seed:           7,
		Checkpoint:     path,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	jr, err := ReadJournal(path, c)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Algorithm != "test-random" || jr.Seed != 7 || !slices.Equal(jr.Space, []string{"x", "y"}) {
		t.Fatalf("journal identity %s seed %d over %v", jr.Algorithm, jr.Seed, jr.Space)
	}
	journalMatches(t, jr, res)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data, `{"consume":48,"lo`...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if jr, err = ReadJournal(path, nil); err != nil {
		t.Fatalf("torn last line: %v", err)
	}
	journalMatches(t, jr, res)
	if got, _ := os.ReadFile(path); !bytes.Equal(got, torn) {
		t.Error("ReadJournal modified the journal")
	}

	other := *c
	other.Seed = 8
	want := "the journal is for test-random seed 7 over [x y], this calibration is test-random seed 8 over [x y]"
	if _, err := ReadJournal(path, &other); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("another seed's journal: err = %v, want resume's %q", err, want)
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
	if n := len(loadJournal(t, path).samples); n != 16 {
		t.Fatalf("journal holds %d evaluations, want 16", n)
	}

	// Resume to the full budget, appending to the same journal; the first
	// 16 evaluations must come from it, not the simulator.
	sim := &countingSim{inner: sphereLoss(optimum)}
	obs := &recordingFaultObserver{}
	resumed := base(sim)
	resumed.Checkpoint, resumed.Resume = path, true
	resumed.Observer = obs
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.calls.Load(); got != 40-16 {
		t.Errorf("resumed run invoked the simulator %d times, want %d (replay must not re-simulate)", got, 40-16)
	}
	if err := CheckIdentical(res, ref); err != nil {
		t.Fatal(err)
	}
	if obs.started.Resumed != 16 {
		t.Errorf("RunInfo.Resumed = %d, want the 16 journaled consumptions", obs.started.Resumed)
	}
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
	// Build a journal by running 8 evals, then hand-set its last
	// consumption's elapsed offset to something noticeable.
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zero := []byte(`"elapsedNanos":0}`)
	last := bytes.LastIndex(data, zero)
	data = slices.Concat(data[:last], fmt.Appendf(nil, `"elapsedNanos":%d}`, snapElapsed), data[last+len(zero):])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c.MaxEvaluations, c.Resume = 12, true
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// With a frozen clock, post-replay samples sit exactly at the
	// journal's offset: elapsed = offset + (0 wall time since resume).
	for i, s := range res.History[8:] {
		if s.Elapsed != snapElapsed {
			t.Errorf("post-resume history[%d].Elapsed = %v, want the %v journal offset", 8+i, s.Elapsed, snapElapsed)
		}
	}
	if res.Elapsed != snapElapsed {
		t.Errorf("Result.Elapsed = %v, want continuation from %v", res.Elapsed, snapElapsed)
	}
}

// TestResumeValidation: a journal that is not this run's fails Run
// before the simulator's first call, and the file is left byte for byte
// as it was.
func TestResumeValidation(t *testing.T) {
	lines := strings.SplitAfter(journalText(sampleJournal()), "\n")
	mutated := func(mutate func(fx *journalFixture)) string {
		fx := sampleJournal()
		mutate(fx)
		return journalText(fx)
	}
	cases := map[string]struct{ doc, want string }{
		"wrong algorithm":     {mutated(func(fx *journalFixture) { fx.alg = "GRID" }), "GRID"},
		"wrong seed":          {mutated(func(fx *journalFixture) { fx.seed = 7 }), "seed 7"},
		"wrong space names":   {mutated(func(fx *journalFixture) { fx.space = []string{"x", "z"} }), "[x z]"},
		"wrong space size":    {strings.Replace(lines[0], `["x","y"]`, `["x"]`, 1), "over [x]"},
		"corrupt middle line": {strings.Join(lines[:2], "") + "{#consume#:0}\n" + strings.Join(lines[3:], ""), "line 3"},
		"old snapshot": {
			`{"kind":"simcal-calibration-checkpoint","algorithm":"test-random","seed":42,"space":["x","y"],"evaluations":0,"samples":[]}` + "\n",
			"snapshot checkpoint"},
	}
	resume := func(path string, sim Simulator) error {
		c := &Calibrator{
			Space:          testSpace,
			Simulator:      sim,
			Algorithm:      randomSearch{},
			MaxEvaluations: 8,
			Seed:           42,
			Checkpoint:     path,
			Resume:         true,
		}
		_, err := c.Run(context.Background())
		return err
	}
	for name, tc := range cases {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		sim := &countingSim{inner: sphereLoss(Point{"x": 1, "y": 1})}
		if err := resume(path, sim); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
		if n := sim.calls.Load(); n != 0 {
			t.Errorf("%s: the simulator ran %d times before the journal was refused", name, n)
		}
		if got, _ := os.ReadFile(path); string(got) != tc.doc {
			t.Errorf("%s: the refused journal was modified", name)
		}
	}
	// A journal path that exists but cannot be read (here a directory)
	// is refused too, not taken for a missing journal.
	sim := &countingSim{inner: sphereLoss(Point{"x": 1, "y": 1})}
	if err := resume(t.TempDir(), sim); err == nil || sim.calls.Load() != 0 {
		t.Errorf("unreadable journal: err = %v after %d simulator calls, want a refusal before the first", err, sim.calls.Load())
	}
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, []byte(lines[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(path, sphereLoss(Point{"x": 1, "y": 1})); err != nil {
		t.Errorf("matching empty journal rejected: %v", err)
	}
	if err := resume("", sphereLoss(Point{"x": 1, "y": 1})); err == nil {
		t.Error("Resume without a Checkpoint accepted")
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
	snap := loadJournal(t, path)
	snap.samples[2].Unit[0] = 0.123456 // not what the seeded algorithm proposes
	writeJournal(t, path, snap)
	c.MaxEvaluations, c.Resume = 16, true
	_, err := c.Run(context.Background())
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

// endedJournal is sampleJournal as a job's journal that has ended.
func endedJournal() *journalFixture {
	fx := sampleJournal()
	fx.job = json.RawMessage(`{"request":{"tenant":"t"},"submitted_unix_ns":1}`)
	fx.end = json.RawMessage(`{"state":"done","elapsed_ns":31000000}`)
	return fx
}

// TestJournalEnd: a job's header field and closing line read back as
// written; after the closing line only a torn last line may follow, and
// anything more is corruption.
func TestJournalEnd(t *testing.T) {
	ended := journalText(endedJournal())
	after := `{"submit":9,"unit":[0.5,0.5]}` + "\n"
	for name, doc := range map[string]string{
		"ended":                         ended,
		"a torn record after the end":   ended + after,
		"a torn second end":             ended + `{"end":{"state":"failed"}}` + "\n",
		"an unterminated line after it": ended + `{"submit":9,"unit":[0.5`,
	} {
		s, err := readJournal([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := fixtureOf(s)
		if string(got.job) != string(endedJournal().job) || string(got.end) != string(endedJournal().end) {
			t.Errorf("%s: job %s end %s, want what was written", name, got.job, got.end)
		}
		if len(got.samples) != 3 {
			t.Errorf("%s: %d samples, want 3", name, len(got.samples))
		}
	}
	for name, doc := range map[string]string{
		"a record after the end": ended + after + after,
		"two end lines":          ended + `{"end":{}}` + "\n" + after,
		"an end with a unit":     journalText(sampleJournal()) + `{"end":{},"unit":[0.5,0.5]}` + "\n" + after,
	} {
		if _, err := readJournal([]byte(doc)); err == nil || !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: err = %v, want the corrupt line named", name, err)
		}
	}
}

// TestResumeRefusesEndedJournal: a run does not resume a journal that
// has ended — not even with a torn line after the closing one — and the
// file is left byte for byte as it was.
func TestResumeRefusesEndedJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 1, "y": 1}),
		Algorithm:      randomSearch{batch: 4},
		MaxEvaluations: 8,
		Seed:           5,
		Checkpoint:     path,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := EndJournal(path, map[string]string{"state": "canceled"}); err != nil {
		t.Fatal(err)
	}
	ended, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{string(ended), string(ended) + `{"submit":9,"unit":[0.5`} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		sim := &countingSim{inner: sphereLoss(Point{"x": 1, "y": 1})}
		c.Simulator, c.MaxEvaluations, c.Resume = sim, 16, true
		_, err := c.Run(context.Background())
		if !errors.Is(err, ErrJournalEnded) || !strings.Contains(err.Error(), path) {
			t.Errorf("resuming an ended journal: err = %v, want ErrJournalEnded naming %s", err, path)
		}
		if n := sim.calls.Load(); n != 0 {
			t.Errorf("the simulator ran %d times before the journal was refused", n)
		}
		if got, _ := os.ReadFile(path); string(got) != doc {
			t.Error("the refused journal was modified")
		}
	}
	// The journal still reads, as a record of the finished run.
	jr, err := ReadJournal(path, c)
	if err != nil || len(jr.History) != 8 || string(jr.End) != `{"state":"canceled"}` {
		t.Errorf("ReadJournal of the ended journal: %d consumptions, end %s, err %v", len(jr.History), jr.End, err)
	}
}
