package core

import (
	"bytes"
	"math"
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
// journal reader, which is what loads a checkpoint: torn tails anywhere,
// repeated or negative sequence numbers, consumptions of submissions
// never made, and unit vectors of the wrong dimension must never panic,
// and an accepted journal must describe the same state when written out
// again — an order or frontier that shifted on re-read would force the
// wrong consumption order on a resumed run. The first seeds the fuzzer
// with batch journals, the second with async journals that carry
// submissions still in flight.
func FuzzReadCheckpoint(f *testing.F) {
	batch := journalText(&Checkpoint{
		Algorithm: "GRID",
		Seed:      42,
		Space:     []string{"x", "y"},
		Samples: []Sample{
			{Unit: []float64{0.25, 0.75}, Loss: 1.25, Elapsed: time.Millisecond},
			{Unit: []float64{0.5, 0.5}, Loss: math.Inf(1), Elapsed: 2 * time.Millisecond},
		},
	})
	for _, seed := range []string{
		batch,
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
	async := journalText(&Checkpoint{
		Algorithm: "async-bo",
		Seed:      7,
		Space:     []string{"x", "y"},
		Samples: []Sample{
			{Unit: []float64{0.25, 0.75}, Loss: 1.25, Elapsed: time.Millisecond},
			{Unit: []float64{0.5, 0.5}, Loss: math.Inf(1), Elapsed: 2 * time.Millisecond},
			{Unit: []float64{0.125, 0.625}, Loss: 0.5, Elapsed: 3 * time.Millisecond},
		},
		Order: []int{1, 0, 3},
		InFlight: []AsyncPending{
			{Seq: 2, Unit: []float64{0.0625, 0.9375}},
			{Seq: 4, Unit: []float64{1.0 / 3.0, 2.0 / 3.0}},
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

func fuzzJournal(t *testing.T, data []byte) {
	ck, err := ReadJournal(bytes.NewReader(data))
	if err != nil {
		return
	}
	if len(ck.Order) != len(ck.Samples) {
		t.Fatalf("accepted journal with %d order entries for %d samples", len(ck.Order), len(ck.Samples))
	}
	seen := make(map[int]bool, len(ck.Order)+len(ck.InFlight))
	for _, seq := range ck.Order {
		if seq < 0 || seen[seq] {
			t.Fatalf("accepted journal with invalid or repeated consumption %d", seq)
		}
		seen[seq] = true
	}
	for _, rec := range ck.InFlight {
		if rec.Seq < 0 || seen[rec.Seq] {
			t.Fatalf("accepted journal with invalid or repeated in-flight seq %d", rec.Seq)
		}
		seen[rec.Seq] = true
	}
	for _, units := range [][][]float64{samplesUnits(ck.Samples), inflightUnits(ck.InFlight)} {
		for _, u := range units {
			if len(u) != len(ck.Space) {
				t.Fatalf("accepted a unit with %d coordinates for a %d-dimensional space", len(u), len(ck.Space))
			}
			for _, x := range u {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatal("accepted a non-finite unit coordinate")
				}
			}
		}
	}
	again, err := ReadJournal(strings.NewReader(journalText(ck)))
	if err != nil {
		t.Fatalf("round-trip rejected: %v", err)
	}
	if again.Algorithm != ck.Algorithm || again.Seed != ck.Seed || again.Elapsed != ck.Elapsed ||
		len(again.Samples) != len(ck.Samples) || len(again.InFlight) != len(ck.InFlight) {
		t.Fatal("round-trip changed the journal's state")
	}
	for i := range ck.Samples {
		a, b := ck.Samples[i], again.Samples[i]
		if again.Order[i] != ck.Order[i] || math.Float64bits(a.Loss) != math.Float64bits(b.Loss) || a.Elapsed != b.Elapsed {
			t.Fatalf("sample %d not stable: seq %d/%d loss %v/%v", i, ck.Order[i], again.Order[i], a.Loss, b.Loss)
		}
		for j := range a.Unit {
			if math.Float64bits(a.Unit[j]) != math.Float64bits(b.Unit[j]) {
				t.Fatalf("sample %d unit %d not bitwise stable", i, j)
			}
		}
	}
	for i, rec := range ck.InFlight {
		if again.InFlight[i].Seq != rec.Seq {
			t.Fatalf("inflight[%d].Seq not stable", i)
		}
		for j := range rec.Unit {
			if math.Float64bits(again.InFlight[i].Unit[j]) != math.Float64bits(rec.Unit[j]) {
				t.Fatalf("inflight[%d].Unit[%d] not bitwise stable", i, j)
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

func inflightUnits(rs []AsyncPending) (out [][]float64) {
	for _, r := range rs {
		out = append(out, r.Unit)
	}
	return out
}
