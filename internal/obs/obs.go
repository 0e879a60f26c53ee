// Package obs is the framework's observability layer: a process-wide
// metrics registry (counters, gauges, histograms with atomic fast
// paths), a structured JSONL trace facility, and a small timestamped
// logger. It depends only on the standard library and is designed so
// that disabled instrumentation costs nothing on the hot paths: all
// trace/logger methods are nil-receiver safe, and metric updates are
// single atomic operations on pre-resolved handles.
//
// The calibration stack is wired to it at three levels:
//
//   - the DES engine and the flow kernel flush per-run statistics
//     (events dispatched, heap depth, progressive-filling solves and
//     iterations) into the default registry;
//   - core.Calibrator accepts an Observer (see core.NewObsObserver)
//     that converts calibration lifecycle callbacks into metrics and
//     trace records;
//   - cmd/simcal and cmd/experiments expose -trace, -metrics, and
//     -pprof flags on top of it.
//
// The trace is purely observational: nothing reads it back to resume,
// replay or compare a run. That record is the calibration's evaluation
// journal (core.ReadJournal), which also holds the paper's
// best-loss-vs-time curves (Figures 1 and 4).
package obs

import (
	"runtime/debug"
	"time"
)

// Clock is an injectable time source; production code uses time.Now,
// tests substitute a deterministic fake.
type Clock func() time.Time

// BuildVersion returns a git-describe-style identifier for the running
// binary derived from the Go build info: the VCS revision (truncated),
// with a "-dirty" suffix for modified trees, falling back to the main
// module version or "dev" when no VCS stamp is available.
func BuildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var rev string
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		if v := info.Main.Version; v != "" && v != "(devel)" {
			return v
		}
		return "dev"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
