// Package core implements the paper's contribution: a general, automated
// simulation-calibration framework. A user describes the simulator's
// parameters (core.Space), provides a loss function that invokes the
// simulator against ground-truth data (core.Evaluator), picks an
// optimization algorithm and a time budget, and the framework searches
// for the parameter values minimizing the loss, in parallel across
// workers.
//
// The package also implements the paper's methodology primitives:
// synthetic benchmarking (plant a known calibration, regenerate ground
// truth, recover it) and the calibration-error metric (relative L1
// distance to the planted calibration) used to select the best
// loss-function/algorithm combination.
package core

import (
	"fmt"
	"math"
	"sort"

	"simcal/internal/stats"
)

// Kind describes how a parameter's search coordinate maps to its value.
type Kind int

const (
	// Continuous parameters take any value in [Min, Max].
	Continuous Kind = iota
	// Integer parameters take integer values in [Min, Max].
	Integer
	// Exponential parameters are searched in exponent space: the
	// coordinate x ranges over [Min, Max] and the value is 2^x. This is
	// how the paper expresses bandwidth/speed ranges ("2^x bits per
	// second for 20 ≤ x ≤ 40").
	Exponential
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Integer:
		return "integer"
	case Exponential:
		return "exponential"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParamSpec declares one calibratable simulation parameter and its
// user-specified range — the constraints of the optimization problem.
type ParamSpec struct {
	Name string
	Kind Kind
	// Min and Max bound the search coordinate (the exponent for
	// Exponential parameters).
	Min, Max float64
}

// Validate reports whether the spec is well-formed.
func (s ParamSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("core: parameter with empty name")
	}
	if math.IsNaN(s.Min) || math.IsNaN(s.Max) || s.Min > s.Max {
		return fmt.Errorf("core: parameter %q has invalid range [%g, %g]", s.Name, s.Min, s.Max)
	}
	return nil
}

// Value maps a unit coordinate u ∈ [0,1] to the parameter's value.
func (s ParamSpec) Value(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	x := s.Min + u*(s.Max-s.Min)
	switch s.Kind {
	case Integer:
		v := math.Round(x)
		if v < s.Min {
			v = math.Ceil(s.Min)
		}
		if v > s.Max {
			v = math.Floor(s.Max)
		}
		return v
	case Exponential:
		return math.Pow(2, x)
	default:
		return x
	}
}

// Unit maps a parameter value back to its unit coordinate ∈ [0,1].
func (s ParamSpec) Unit(v float64) float64 {
	x := v
	if s.Kind == Exponential {
		if v <= 0 {
			return 0
		}
		x = math.Log2(v)
	}
	if s.Max == s.Min {
		return 0
	}
	u := (x - s.Min) / (s.Max - s.Min)
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// Space is an ordered set of parameter specs defining the search space.
type Space []ParamSpec

// Validate checks every spec and rejects duplicate names.
func (sp Space) Validate() error {
	if len(sp) == 0 {
		return fmt.Errorf("core: empty parameter space")
	}
	seen := make(map[string]bool, len(sp))
	for _, s := range sp {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("core: duplicate parameter %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// Dim returns the dimensionality of the space.
func (sp Space) Dim() int { return len(sp) }

// Decode maps a unit-cube position to named parameter values.
func (sp Space) Decode(u []float64) Point {
	if len(u) != len(sp) {
		panic("core: Decode dimension mismatch")
	}
	p := make(Point, len(sp))
	for i, s := range sp {
		p[s.Name] = s.Value(u[i])
	}
	return p
}

// Encode maps named parameter values to the unit cube. Missing names
// panic: the caller constructed an incomplete point.
func (sp Space) Encode(p Point) []float64 {
	u := make([]float64, len(sp))
	for i, s := range sp {
		v, ok := p[s.Name]
		if !ok {
			panic(fmt.Sprintf("core: point missing parameter %q", s.Name))
		}
		u[i] = s.Unit(v)
	}
	return u
}

// Sample draws a uniform random position in the unit cube.
func (sp Space) Sample(rng *stats.RNG) []float64 {
	u := make([]float64, len(sp))
	sp.SampleInto(rng, u)
	return u
}

// SampleInto is Sample into the caller's u (len(u) must be Dim()), with
// the same draws in the same order.
func (sp Space) SampleInto(rng *stats.RNG, u []float64) {
	if len(u) != len(sp) {
		panic("core: SampleInto length mismatch")
	}
	for i := range u {
		u[i] = rng.Float64()
	}
}

// Point is a complete assignment of values to the space's parameters.
type Point map[string]float64

// Clone returns a copy of the point.
func (p Point) Clone() Point {
	c := make(Point, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// String renders the point with sorted keys for stable output.
func (p Point) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s: %.6g", k, p[k])
	}
	return s + "}"
}

// CalibrationError is the paper's metric for synthetic benchmarking: the
// relative L1 distance between a computed calibration and the known best
// (planted) calibration, in percent. Each parameter's deviation is
// normalized by its user-specified range (in search-coordinate space, so
// exponential parameters compare by exponent): a dimension contributes
// between 0 (exact) and 100 (opposite end of its range). Without
// per-range normalization, parameters with tiny true values (a 0.1 ms
// latency) or exponential ranges would dominate the metric by orders of
// magnitude and make loss functions incomparable — the comparison the
// metric exists to support.
func CalibrationError(space Space, got, truth Point) float64 {
	for _, s := range space {
		if _, ok := got[s.Name]; !ok {
			panic(fmt.Sprintf("core: CalibrationError missing parameter %q", s.Name))
		}
		if _, ok := truth[s.Name]; !ok {
			panic(fmt.Sprintf("core: CalibrationError missing parameter %q", s.Name))
		}
	}
	ug := space.Encode(got)
	ut := space.Encode(truth)
	sum := 0.0
	for i := range ug {
		sum += math.Abs(ug[i] - ut[i])
	}
	return 100 * sum
}
