package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"simcal/internal/stats"
)

func TestParamSpecContinuous(t *testing.T) {
	s := ParamSpec{Name: "lat", Kind: Continuous, Min: 0, Max: 10}
	if s.Value(0) != 0 || s.Value(1) != 10 || s.Value(0.5) != 5 {
		t.Error("Continuous Value mapping wrong")
	}
	if s.Unit(5) != 0.5 {
		t.Error("Continuous Unit mapping wrong")
	}
	// Clamping.
	if s.Value(-1) != 0 || s.Value(2) != 10 {
		t.Error("Value should clamp u to [0,1]")
	}
	if s.Unit(-5) != 0 || s.Unit(50) != 1 {
		t.Error("Unit should clamp to [0,1]")
	}
}

func TestParamSpecInteger(t *testing.T) {
	s := ParamSpec{Name: "conc", Kind: Integer, Min: 1, Max: 100}
	for _, u := range []float64{0, 0.25, 0.5, 0.99, 1} {
		v := s.Value(u)
		if v != math.Round(v) {
			t.Errorf("Integer Value(%v) = %v is not integral", u, v)
		}
		if v < 1 || v > 100 {
			t.Errorf("Integer Value(%v) = %v out of range", u, v)
		}
	}
	if s.Value(0) != 1 || s.Value(1) != 100 {
		t.Error("Integer endpoints wrong")
	}
}

func TestParamSpecExponential(t *testing.T) {
	s := ParamSpec{Name: "bw", Kind: Exponential, Min: 20, Max: 40}
	if s.Value(0) != math.Pow(2, 20) || s.Value(1) != math.Pow(2, 40) {
		t.Error("Exponential endpoints wrong")
	}
	if s.Value(0.5) != math.Pow(2, 30) {
		t.Error("Exponential midpoint wrong")
	}
	if got := s.Unit(math.Pow(2, 30)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Exponential Unit = %v, want 0.5", got)
	}
	if s.Unit(-1) != 0 {
		t.Error("Exponential Unit of non-positive value should clamp to 0")
	}
}

func TestKindString(t *testing.T) {
	if Continuous.String() != "continuous" || Integer.String() != "integer" || Exponential.String() != "exponential" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestSpaceValidate(t *testing.T) {
	good := Space{
		{Name: "a", Kind: Continuous, Min: 0, Max: 1},
		{Name: "b", Kind: Exponential, Min: 20, Max: 40},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid space rejected: %v", err)
	}
	bad := []Space{
		{},
		{{Name: "", Min: 0, Max: 1}},
		{{Name: "x", Min: 2, Max: 1}},
		{{Name: "x", Min: 0, Max: 1}, {Name: "x", Min: 0, Max: 1}},
		{{Name: "x", Min: math.NaN(), Max: 1}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad space %d accepted", i)
		}
	}
}

func TestSpaceDecodeEncodeRoundTrip(t *testing.T) {
	sp := Space{
		{Name: "lat", Kind: Continuous, Min: 0, Max: 10},
		{Name: "bw", Kind: Exponential, Min: 20, Max: 40},
		{Name: "conc", Kind: Integer, Min: 1, Max: 100},
	}
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		u := sp.Sample(rng)
		pt := sp.Decode(u)
		u2 := sp.Encode(pt)
		pt2 := sp.Decode(u2)
		// Decode∘Encode must be idempotent on values (integer rounding
		// makes the unit coordinate inexact, but values must agree).
		for k, v := range pt {
			if math.Abs(pt2[k]-v) > 1e-6*(1+math.Abs(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestDecodeDimensionMismatchPanics(t *testing.T) {
	sp := Space{{Name: "a", Min: 0, Max: 1}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sp.Decode([]float64{0.1, 0.2})
}

func TestEncodeMissingParamPanics(t *testing.T) {
	sp := Space{{Name: "a", Min: 0, Max: 1}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sp.Encode(Point{"b": 0.5})
}

func TestPointCloneAndString(t *testing.T) {
	p := Point{"b": 2, "a": 1}
	c := p.Clone()
	c["a"] = 99
	if p["a"] != 1 {
		t.Error("Clone shares storage")
	}
	if s := p.String(); s != "{a: 1, b: 2}" {
		t.Errorf("String = %q", s)
	}
}

func TestCalibrationError(t *testing.T) {
	sp := Space{
		{Name: "a", Kind: Continuous, Min: 0, Max: 10},
		{Name: "b", Kind: Continuous, Min: 0, Max: 10},
	}
	truth := Point{"a": 2, "b": 4}
	got := Point{"a": 3, "b": 2} // range-normalized |Δu| = 0.1 + 0.2 → 30%
	if e := CalibrationError(sp, got, truth); math.Abs(e-30) > 1e-9 {
		t.Errorf("CalibrationError = %v, want 30", e)
	}
	if e := CalibrationError(sp, truth, truth); e != 0 {
		t.Errorf("perfect calibration error = %v, want 0", e)
	}
}

func TestCalibrationErrorMissingParamPanics(t *testing.T) {
	sp := Space{{Name: "a", Min: 0, Max: 1}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CalibrationError(sp, Point{}, Point{"a": 1})
}
