package core

import (
	"bytes"
	"math"
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

func FuzzReadCheckpoint(f *testing.F) {
	var buf bytes.Buffer
	ck := &Checkpoint{
		Algorithm:   "GRID",
		Seed:        42,
		Space:       []string{"x", "y"},
		Evaluations: 2,
		Elapsed:     time.Second,
		Samples: []Sample{
			{Unit: []float64{0.25, 0.75}, Point: Point{"x": 2.5, "y": 7.5}, Loss: 1.25, Elapsed: time.Millisecond},
			{Unit: []float64{0.5, 0.5}, Point: Point{"x": 5, "y": 5}, Loss: math.Inf(1), Elapsed: 2 * time.Millisecond},
		},
	}
	if err := ck.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"Inf"`), []byte(`"bogus"`), 1))
	f.Add([]byte(`{"kind":"simcal-calibration-checkpoint","algorithm":"A","space":["x"],"evaluations":1,"samples":[{"unit":[0.5],"point":{"x":1},"loss":"NaN"}]}`))
	f.Add([]byte(`{"kind":"simcal-calibration-checkpoint","algorithm":"A","space":["x"],"evaluations":1,"samples":[{"unit":["NaN"],"point":{},"loss":0}]}`))
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if ck.Evaluations != len(ck.Samples) {
			t.Fatalf("accepted checkpoint with %d evaluations but %d samples", ck.Evaluations, len(ck.Samples))
		}
		var out bytes.Buffer
		if err := ck.WriteJSON(&out); err != nil {
			t.Fatalf("accepted checkpoint does not re-serialize: %v", err)
		}
		again, err := ReadCheckpoint(&out)
		if err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		if again.Algorithm != ck.Algorithm || again.Seed != ck.Seed || len(again.Samples) != len(ck.Samples) {
			t.Fatal("round-trip changed the checkpoint identity")
		}
		for i := range ck.Samples {
			a, b := ck.Samples[i], again.Samples[i]
			if math.Float64bits(a.Loss) != math.Float64bits(b.Loss) {
				t.Fatalf("sample %d loss not bitwise stable: %v != %v", i, a.Loss, b.Loss)
			}
			for j := range a.Unit {
				if math.Float64bits(a.Unit[j]) != math.Float64bits(b.Unit[j]) {
					t.Fatalf("sample %d unit %d not bitwise stable", i, j)
				}
			}
		}
	})
}

// FuzzReadCheckpointAsync targets the async extension of the
// checkpoint format: completion-order and in-flight records. Torn
// tails and mutated async fields must never panic, and any accepted
// document's order/in-flight state must round-trip bitwise — a replay
// order that shifted on re-read would force the wrong consumption
// order on a resumed run.
func FuzzReadCheckpointAsync(f *testing.F) {
	var buf bytes.Buffer
	ck := &Checkpoint{
		Algorithm:   "async-bo",
		Seed:        7,
		Space:       []string{"x", "y"},
		Evaluations: 3,
		Elapsed:     time.Second,
		Samples: []Sample{
			{Unit: []float64{0.25, 0.75}, Point: Point{"x": 2.5, "y": 7.5}, Loss: 1.25, Elapsed: time.Millisecond},
			{Unit: []float64{0.5, 0.5}, Point: Point{"x": 5, "y": 5}, Loss: math.Inf(1), Elapsed: 2 * time.Millisecond},
			{Unit: []float64{0.125, 0.625}, Point: Point{"x": 1.25, "y": 6.25}, Loss: 0.5, Elapsed: 3 * time.Millisecond},
		},
		Order: []int{1, 0, 3},
		InFlight: []AsyncPending{
			{Seq: 2, Unit: []float64{0.0625, 0.9375}},
			{Seq: 4, Unit: []float64{1.0 / 3.0, 2.0 / 3.0}},
		},
	}
	if err := ck.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Torn tails: a crash mid-write can truncate anywhere, including
	// inside the async records near the end of the document.
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-2])
	f.Add(bytes.TrimRight(valid, "}\n"))
	// Mutated async fields.
	f.Add(bytes.Replace(valid, []byte(`"order":[1,0,3]`), []byte(`"order":[1,1,3]`), 1))
	f.Add(bytes.Replace(valid, []byte(`"order":[1,0,3]`), []byte(`"order":[-1,0,3]`), 1))
	f.Add(bytes.Replace(valid, []byte(`"order":[1,0,3]`), []byte(`"order":[1,0]`), 1))
	f.Add(bytes.Replace(valid, []byte(`"seq":2`), []byte(`"seq":1`), 1))
	f.Add(bytes.Replace(valid, []byte(`"seq":2`), []byte(`"seq":-2`), 1))
	f.Add(bytes.Replace(valid, []byte(`[0.0625,0.9375]`), []byte(`[0.0625]`), 1))
	f.Add([]byte(`{"kind":"simcal-calibration-checkpoint","algorithm":"A","space":["x"],"evaluations":0,"samples":[],"inflight":[{"seq":0,"unit":[0.5]}]}`))
	f.Add([]byte(`{"kind":"simcal-calibration-checkpoint","algorithm":"A","space":["x"],"evaluations":0,"samples":[],"order":[0]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(ck.Order) > 0 && len(ck.Order) != len(ck.Samples) {
			t.Fatalf("accepted checkpoint with %d order entries for %d samples", len(ck.Order), len(ck.Samples))
		}
		seen := make(map[int]bool, len(ck.Order)+len(ck.InFlight))
		for _, seq := range ck.Order {
			if seq < 0 || seen[seq] {
				t.Fatalf("accepted checkpoint with invalid or repeated order seq %d", seq)
			}
			seen[seq] = true
		}
		for _, rec := range ck.InFlight {
			if rec.Seq < 0 || seen[rec.Seq] {
				t.Fatalf("accepted checkpoint with invalid or repeated in-flight seq %d", rec.Seq)
			}
			seen[rec.Seq] = true
			if len(rec.Unit) != len(ck.Space) {
				t.Fatalf("accepted in-flight record with %d unit coordinates for a %d-dimensional space", len(rec.Unit), len(ck.Space))
			}
			for _, u := range rec.Unit {
				if math.IsNaN(u) || math.IsInf(u, 0) {
					t.Fatal("accepted in-flight record with a non-finite unit coordinate")
				}
			}
		}
		var out bytes.Buffer
		if err := ck.WriteJSON(&out); err != nil {
			t.Fatalf("accepted checkpoint does not re-serialize: %v", err)
		}
		again, err := ReadCheckpoint(&out)
		if err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		if len(again.Order) != len(ck.Order) || len(again.InFlight) != len(ck.InFlight) {
			t.Fatal("round-trip changed the async record counts")
		}
		for i := range ck.Order {
			if again.Order[i] != ck.Order[i] {
				t.Fatalf("order[%d] not stable: %d != %d", i, ck.Order[i], again.Order[i])
			}
		}
		for i := range ck.InFlight {
			if again.InFlight[i].Seq != ck.InFlight[i].Seq {
				t.Fatalf("inflight[%d].Seq not stable", i)
			}
			for j := range ck.InFlight[i].Unit {
				if math.Float64bits(again.InFlight[i].Unit[j]) != math.Float64bits(ck.InFlight[i].Unit[j]) {
					t.Fatalf("inflight[%d].Unit[%d] not bitwise stable", i, j)
				}
			}
		}
	})
}
