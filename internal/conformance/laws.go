package conformance

import (
	"fmt"
	"strings"

	"simcal/internal/obs"
)

// The metric laws: identities between the series of one registry that
// hold exactly, at any moment a test can stop a run, however its
// evaluations were timed or scheduled. Each quantity is registered once,
// and a law is what lets a reader derive another quantity from it: the
// number of evaluations from a histogram's count, the live workers from
// two counters. The conformance table checks the first law after every
// cell; internal/dist's tests check the others.

// CheckEvaluations checks the registry core's observer kept for a
// calibration bounded by MaxEvaluations alone against the evaluations
// its result reports. cal.eval_ns counts them: one observation per
// consumed evaluation. cal.batch_size sums to them: every evaluation is
// proposed in exactly one batch (an asynchronous submission is a batch
// of one), and without a deadline every proposal is consumed. A resumed
// run counts the evaluations its journal served as well as those it
// ran: its algorithm proposes them again, and the engine consumes both
// alike.
func CheckEvaluations(reg *obs.Registry, evaluations int) error {
	s := reg.Snapshot()
	if n := s.Histograms["cal.eval_ns"].Count; n != int64(evaluations) {
		return fmt.Errorf("cal.eval_ns counts %d evaluations, the result reports %d", n, evaluations)
	}
	if n := s.Histograms["cal.batch_size"].Sum; n != int64(evaluations) {
		return fmt.Errorf("cal.batch_size sums to %d evaluations, the result reports %d", n, evaluations)
	}
	return nil
}

// CheckFleetMembers checks that a coordinator's dist.workers_connected
// minus its dist.workers_lost is members, the workers its fleet holds.
func CheckFleetMembers(reg *obs.Registry, members int) error {
	connected, lost := reg.Counter("dist.workers_connected").Value(), reg.Counter("dist.workers_lost").Value()
	if connected-lost != int64(members) {
		return fmt.Errorf("dist.workers_connected %d − dist.workers_lost %d ≠ %d workers in the fleet", connected, lost, members)
	}
	return nil
}

// CheckWorkerEvals checks that every worker.eval_ns series in reg — a
// worker's own, or a coordinator's copy under a worker label — counts
// what worker.evals_ok and worker.evals_failed of the same labels count.
func CheckWorkerEvals(reg *obs.Registry) error {
	const base = "worker.eval_ns"
	s := reg.Snapshot()
	for name, h := range s.Histograms {
		labels, ok := strings.CutPrefix(name, base)
		if !ok || labels != "" && labels[0] != '{' {
			continue
		}
		okN, failed := s.Counters["worker.evals_ok"+labels], s.Counters["worker.evals_failed"+labels]
		if h.Count != okN+failed {
			return fmt.Errorf("%s counts %d evaluations, evals_ok + evals_failed %d + %d", name, h.Count, okN, failed)
		}
	}
	return nil
}
