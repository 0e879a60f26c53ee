//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// rusage returns this process's CPU seconds (user + system) and peak
// resident set size in MB.
func rusage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpuS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	rss := float64(ru.Maxrss) // kilobytes, except on darwin: bytes
	if runtime.GOOS == "darwin" {
		rss /= 1024
	}
	return cpuS, rss / 1024
}
