//go:build race

package simcal

// raceEnabled reports whether the race detector is active; the kernel scale
// scenarios skip their wall budget under it (instrumentation slows them
// by an order of magnitude, not just a margin).
const raceEnabled = true
