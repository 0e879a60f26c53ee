package core

import (
	"bytes"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// The persistence readers sit downstream of the filesystem: a killed
// run, a full disk, or a stray editor can hand them anything. The fuzz
// contract is that arbitrary input never panics, and that any input
// they accept survives a write/read round-trip unchanged — a document
// that parses but does not round-trip would corrupt a resumed run.

func FuzzReadResult(f *testing.F) {
	var buf bytes.Buffer
	r := &Result{
		Algorithm:   "RAND",
		Evaluations: 2,
		Elapsed:     3 * time.Second,
		Best:        Sample{Point: Point{"x": 1.5, "y": -2}, Loss: 0.25, Elapsed: time.Second},
		History: []Sample{
			{Point: Point{"x": 4, "y": 8}, Loss: 2.5, Elapsed: 500 * time.Millisecond},
			{Point: Point{"x": 1.5, "y": -2}, Loss: 0.25, Elapsed: time.Second},
		},
	}
	if err := r.WriteJSON(&buf, true); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"kind":"simcal-calibration-result"}`))
	f.Add([]byte(`{"kind":"wrong","best":{"point":{"x":1}}}`))
	f.Add([]byte(`{"kind":"simcal-calibration-result","evaluations":1,"best":{"point":{"x":1},"loss":"Inf"},"history":[{"point":{"x":1},"loss":"Inf"}]}`))
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadResult(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(res.Best.Point) == 0 {
			t.Fatal("accepted a result without a best point")
		}
		var out bytes.Buffer
		if err := res.WriteJSON(&out, true); err != nil {
			t.Fatalf("accepted result does not re-serialize: %v", err)
		}
		again, err := ReadResult(&out)
		if err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		if again.Algorithm != res.Algorithm || again.Evaluations != res.Evaluations ||
			len(again.History) != len(res.History) {
			t.Fatalf("round-trip changed the result: %+v != %+v", again, res)
		}
	})
}

// FuzzReadCheckpoint and FuzzReadCheckpointAsync target the calibration
// journal's index, which is what a resumed run reads: torn tails
// anywhere, repeated or negative sequence numbers, consumptions of
// submissions never made, and unit vectors of the wrong dimension must
// never panic, and an accepted journal must describe the same state when
// written out again — an order or frontier that shifted on re-read would
// force the wrong consumption order on a resumed run. The first seeds
// the fuzzer with batch journals, the second with async journals that
// carry submissions still in flight.
func FuzzReadCheckpoint(f *testing.F) {
	batch := journalText(&journalFixture{
		alg:   "GRID",
		seed:  42,
		space: []string{"x", "y"},
		samples: []Sample{
			{Unit: []float64{0.25, 0.75}, Loss: 1.25, Elapsed: time.Millisecond},
			{Unit: []float64{0.5, 0.5}, Loss: math.Inf(1), Elapsed: 2 * time.Millisecond},
		},
	})
	ended := journalText(&journalFixture{
		alg:     "GRID",
		seed:    42,
		space:   []string{"x", "y"},
		samples: []Sample{{Unit: []float64{0.25, 0.75}, Loss: math.Inf(1), Elapsed: time.Millisecond}},
		job:     []byte(`{"request":{"tenant":"t","spec":{"toy":1}},"submitted_unix_ns":7}`),
		end:     []byte(`{"state":"failed","error":"boom","finished_unix_ns":9,"elapsed_ns":0}`),
	})
	after := `{"submit":1,"unit":[0.5,0.5]}` + "\n"
	for _, seed := range []string{
		batch,
		// A job's journal, ended; a record after its end (corrupt unless
		// it is the last line); two end lines.
		ended,
		ended + after,
		ended + after + `{"consume":1,"loss":1,"elapsedNanos":1}` + "\n",
		ended + `{"end":{"state":"done"}}` + "\n",
		ended + `{"end":null}` + "\n" + after,
		// Mutated records.
		strings.Replace(batch, `"Inf"`, `"bogus"`, 1),
		strings.Replace(batch, `"loss":1.25`, `"loss":"NaN"`, 1),
		strings.Replace(batch, `"unit":[0.25,0.75]`, `"unit":["NaN",0.75]`, 1),
		`{"kind":"simcal-calibration-checkpoint","algorithm":"A","space":["x"],"evaluations":0,"samples":[]}` + "\n",
		"",
		"{",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(fuzzJournal)
}

func FuzzReadCheckpointAsync(f *testing.F) {
	async := journalText(&journalFixture{
		alg:   "async-bo",
		seed:  7,
		space: []string{"x", "y"},
		samples: []Sample{
			{Unit: []float64{0.25, 0.75}, Loss: 1.25, Elapsed: time.Millisecond},
			{Unit: []float64{0.5, 0.5}, Loss: math.Inf(1), Elapsed: 2 * time.Millisecond},
			{Unit: []float64{0.125, 0.625}, Loss: 0.5, Elapsed: 3 * time.Millisecond},
		},
		order: []int{1, 0, 3},
		inFlight: map[int][]float64{
			2: {0.0625, 0.9375},
			4: {1.0 / 3.0, 2.0 / 3.0},
		},
	})
	header, _, _ := strings.Cut(async, "\n")
	header += "\n"
	for _, seed := range []string{
		async,
		// Torn tails: a kill can cut the last write anywhere.
		async[:len(async)/2],
		async[:len(async)-2],
		strings.TrimRight(async, "}\n"),
		// Mutated records.
		header + `{"submit":0,"unit":[0.5,0.5]}` + "\n" + `{"consume":0,"loss":1,"elapsedNanos":1}` + "\n" + `{"consume":0,"loss":1,"elapsedNanos":1}` + "\n",
		header + `{"submit":0,"unit":[0.5,0.5]}` + "\n" + `{"consume":-1,"loss":1,"elapsedNanos":1}` + "\n",
		header + `{"submit":-1,"unit":[0.5,0.5]}` + "\n",
		header + `{"consume":3,"loss":1,"elapsedNanos":1}` + "\n",
		header + `{"submit":1,"unit":[0.5,0.5]}` + "\n" + `{"submit":1,"unit":[0.5,0.5]}` + "\n",
		header + `{"submit":1,"unit":[0.5]}` + "\n",
		header,
		strings.TrimSuffix(header, "\n"),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(fuzzJournal)
}

// readJournal indexes journal bytes as a resumed run's open does,
// without a file. A torn last line is ignored; any other corruption
// returns an error, never a panic.
func readJournal(data []byte) (journalState, error) {
	s := newJournalState(nil)
	_, err := scanJournal(data, s.header, s.record)
	return s, err
}

func fuzzJournal(t *testing.T, data []byte) {
	s, err := readJournal(data)
	if err != nil {
		return
	}
	// The curve simcal -replay prints is a running minimum: NaN-free (a
	// NaN loss never becomes the best) and never increasing.
	_, curve := (&Result{History: s.run().History}).LossOverTime()
	for i, l := range curve {
		if math.IsNaN(l) {
			t.Fatalf("NaN leaked into the best-loss curve at point %d", i)
		}
		if i > 0 && l > curve[i-1] {
			t.Fatalf("best-loss curve increased at point %d: %v -> %v", i, curve[i-1], l)
		}
	}
	ck := fixtureOf(s)
	if len(s.order) != len(s.consumed) {
		t.Fatalf("accepted journal with %d order entries for %d consumptions", len(s.order), len(s.consumed))
	}
	seen := make(map[int]bool, len(ck.order))
	for _, seq := range ck.order {
		if seq < 0 || seen[seq] {
			t.Fatalf("accepted journal with invalid or repeated consumption %d", seq)
		}
		seen[seq] = true
	}
	for seq := range ck.inFlight {
		if seq < 0 {
			t.Fatalf("accepted journal with invalid in-flight seq %d", seq)
		}
	}
	for _, u := range append(samplesUnits(ck.samples), slices.Collect(maps.Values(ck.inFlight))...) {
		if len(u) != len(ck.space) {
			t.Fatalf("accepted a unit with %d coordinates for a %d-dimensional space", len(u), len(ck.space))
		}
		for _, x := range u {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatal("accepted a non-finite unit coordinate")
			}
		}
	}
	re, err := readJournal([]byte(journalText(ck)))
	if err != nil {
		t.Fatalf("round-trip rejected: %v", err)
	}
	again := fixtureOf(re)
	if journalText(again) != journalText(ck) {
		t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", journalText(ck), journalText(again))
	}
	if again.alg != ck.alg || again.seed != ck.seed || re.elapsed != s.elapsed ||
		len(again.samples) != len(ck.samples) || len(again.inFlight) != len(ck.inFlight) {
		t.Fatal("round-trip changed the journal's state")
	}
	for i := range ck.samples {
		a, b := ck.samples[i], again.samples[i]
		if again.order[i] != ck.order[i] || math.Float64bits(a.Loss) != math.Float64bits(b.Loss) || a.Elapsed != b.Elapsed {
			t.Fatalf("sample %d not stable: seq %d/%d loss %v/%v", i, ck.order[i], again.order[i], a.Loss, b.Loss)
		}
		for j := range a.Unit {
			if math.Float64bits(a.Unit[j]) != math.Float64bits(b.Unit[j]) {
				t.Fatalf("sample %d unit %d not bitwise stable", i, j)
			}
		}
	}
	for seq, unit := range ck.inFlight {
		for j := range unit {
			if len(again.inFlight[seq]) != len(unit) || math.Float64bits(again.inFlight[seq][j]) != math.Float64bits(unit[j]) {
				t.Fatalf("inflight[%d].Unit[%d] not bitwise stable", seq, j)
			}
		}
	}
}

func samplesUnits(ss []Sample) (out [][]float64) {
	for _, s := range ss {
		out = append(out, s.Unit)
	}
	return out
}
