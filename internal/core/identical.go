package core

import (
	"fmt"
	"math"
)

// CheckIdentical returns nil when got is want bit for bit, and
// otherwise an error naming the first difference. It compares the
// evaluation count, the elapsed time, and every history sample and the
// best sample: unit position, point and loss by math.Float64bits,
// point keys in both directions, and the elapsed time exactly. Runs of
// one calibration with a frozen Clock pass it against each other
// whatever their deployment: that is the determinism contract.
func CheckIdentical(got, want *Result) error {
	if got.Evaluations != want.Evaluations {
		return fmt.Errorf("%d evaluations, want %d", got.Evaluations, want.Evaluations)
	}
	if got.Elapsed != want.Elapsed {
		return fmt.Errorf("elapsed %v, want %v", got.Elapsed, want.Elapsed)
	}
	if len(got.History) != len(want.History) {
		return fmt.Errorf("history has %d samples, want %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if err := identicalSample(got.History[i], want.History[i]); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
	}
	if err := identicalSample(got.Best, want.Best); err != nil {
		return fmt.Errorf("best: %w", err)
	}
	return nil
}

func identicalSample(got, want Sample) error {
	if len(got.Unit) != len(want.Unit) {
		return fmt.Errorf("unit %v, want %v", got.Unit, want.Unit)
	}
	for j, w := range want.Unit {
		if math.Float64bits(got.Unit[j]) != math.Float64bits(w) {
			return fmt.Errorf("unit[%d] = %v, want %v", j, got.Unit[j], w)
		}
	}
	if len(got.Point) != len(want.Point) { // so the loop below checks keys both ways
		return fmt.Errorf("point %v, want %v", got.Point, want.Point)
	}
	for k, w := range want.Point {
		if g, ok := got.Point[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("point[%s] = %v, want %v", k, g, w)
		}
	}
	if math.Float64bits(got.Loss) != math.Float64bits(want.Loss) {
		return fmt.Errorf("loss = %v, want %v", got.Loss, want.Loss)
	}
	if got.Elapsed != want.Elapsed {
		return fmt.Errorf("elapsed %v, want %v", got.Elapsed, want.Elapsed)
	}
	return nil
}
