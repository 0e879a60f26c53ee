//go:build !unix

package main

// rusage is unavailable here; the process.* metrics that need it read 0.
func rusage() (cpuS, peakRSSMB float64) { return 0, 0 }
