package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestResultJSONRoundTrip(t *testing.T) {
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 3, "y": 7}),
		Algorithm:      randomSearch{},
		MaxEvaluations: 40,
		Workers:        2,
		Seed:           5,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != res.Algorithm || back.Evaluations != res.Evaluations {
		t.Error("metadata lost in round trip")
	}
	if back.Best.Loss != res.Best.Loss {
		t.Errorf("best loss %v != %v", back.Best.Loss, res.Best.Loss)
	}
	for k, v := range res.Best.Point {
		if back.Best.Point[k] != v {
			t.Errorf("best point %s lost", k)
		}
	}
	if len(back.History) != len(res.History) {
		t.Errorf("history %d != %d", len(back.History), len(res.History))
	}
	// Convergence curve must survive the round trip.
	_, lossesA := res.LossOverTime()
	_, lossesB := back.LossOverTime()
	for i := range lossesA {
		if lossesA[i] != lossesB[i] {
			t.Fatal("convergence curve changed by round trip")
		}
	}
}

// TestResultJSONNonFiniteLossRoundTrip: a failed evaluation is recorded
// as a +Inf loss, and a result holding one must still be writable —
// simcal -out, simcald's durable result and its result endpoint all go
// through WriteJSON after the whole calibration has run. Finite losses
// keep their bytes.
func TestResultJSONNonFiniteLossRoundTrip(t *testing.T) {
	res := &Result{
		Algorithm:   "RAND",
		Evaluations: 3,
		Elapsed:     3 * time.Second,
		Best:        Sample{Point: Point{"x": 1.5}, Loss: 0.25, Elapsed: 2 * time.Second},
		History: []Sample{
			{Point: Point{"x": 4}, Loss: math.Inf(1), Elapsed: time.Second},
			{Point: Point{"x": 1.5}, Loss: 0.25, Elapsed: 2 * time.Second},
			{Point: Point{"x": 9}, Loss: math.NaN(), Elapsed: 3 * time.Second},
		},
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, true); err != nil {
		t.Fatalf("a history with a failed evaluation cannot be written: %v", err)
	}
	doc := buf.String()
	for _, want := range []string{`"loss":"Inf"`, `"loss":"NaN"`, `"loss":0.25`} {
		if !strings.Contains(doc, want) {
			t.Errorf("result document lacks %s:\n%s", want, doc)
		}
	}
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.History) != 3 || !math.IsInf(back.History[0].Loss, 1) || back.History[1].Loss != 0.25 || !math.IsNaN(back.History[2].Loss) {
		t.Errorf("history losses after the round trip = %+v", back.History)
	}

	// All-failed: the best sample itself is +Inf.
	res.Best.Loss = math.Inf(1)
	buf.Reset()
	if err := res.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	if back, err = ReadResult(&buf); err != nil || !math.IsInf(back.Best.Loss, 1) {
		t.Errorf("a +Inf best loss came back as %v, %v", back, err)
	}
}

func TestResultJSONWithoutHistory(t *testing.T) {
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sphereLoss(Point{"x": 1, "y": 1}),
		Algorithm:      randomSearch{},
		MaxEvaluations: 10,
		Workers:        1,
		Seed:           2,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.History) != 0 {
		t.Error("history should be omitted")
	}
	if back.Best.Loss != res.Best.Loss {
		t.Error("best lost")
	}
}

func TestReadResultRejectsBadDocs(t *testing.T) {
	cases := []string{
		"{oops",
		`{"kind":"wrong"}`,
		`{"kind":"simcal-calibration-result","best":{"point":{}}}`,
	}
	for i, c := range cases {
		if _, err := ReadResult(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
