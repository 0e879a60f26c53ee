//go:build !race

package simcal

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
