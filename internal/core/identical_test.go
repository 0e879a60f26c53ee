package core

import (
	"math"
	"testing"
	"time"
)

// CheckIdentical tells apart what == would not (+0 from −0), walks the
// point keys of both sides, and holds the best sample to the same bits
// as the history.
func TestCheckIdenticalIsBitwise(t *testing.T) {
	result := func() *Result {
		s := Sample{Unit: []float64{0.25, 0}, Point: Point{"x": 2.5, "y": 0}, Loss: 1.5, Elapsed: time.Second}
		best := s
		best.Point = Point{"x": 2.5, "y": 0}
		return &Result{Best: best, History: []Sample{s}, Evaluations: 1, Elapsed: 2 * time.Second}
	}
	if err := CheckIdentical(result(), result()); err != nil {
		t.Fatalf("a result against its copy: %v", err)
	}
	for name, change := range map[string]func(r *Result){
		"negative zero unit":  func(r *Result) { r.History[0].Unit[1] = math.Copysign(0, -1) },
		"negative zero point": func(r *Result) { r.History[0].Point["y"] = math.Copysign(0, -1) },
		"extra point key":     func(r *Result) { r.History[0].Point["z"] = 0 },
		"renamed point key":   func(r *Result) { delete(r.History[0].Point, "y"); r.History[0].Point["z"] = 0 },
		"loss":                func(r *Result) { r.History[0].Loss = math.Nextafter(1.5, 2) },
		"sample elapsed":      func(r *Result) { r.History[0].Elapsed++ },
		"best point":          func(r *Result) { r.Best.Point["x"] = 3 },
		"best unit":           func(r *Result) { r.Best.Unit = nil },
		"evaluations":         func(r *Result) { r.Evaluations = 2 },
		"elapsed":             func(r *Result) { r.Elapsed = 0 },
	} {
		got := result()
		change(got)
		if err := CheckIdentical(got, result()); err == nil {
			t.Errorf("%s: no difference reported", name)
		}
	}
}
