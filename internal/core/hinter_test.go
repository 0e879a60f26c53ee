package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// hintedSim is a Simulator that advertises an evaluation concurrency
// via ConcurrencyHinter. Each Run parks at a rendezvous barrier that
// only opens once `rendezvous` evaluations are in flight
// simultaneously, so the calibration can finish only if the evaluation
// engine runs at least that many at once — and evaluations provably
// overlap without anyone sleeping. It also records the peak number of
// concurrent Run calls.
type hintedSim struct {
	hint       int
	rendezvous int
	arrived    atomic.Int64
	open       chan struct{}
	inUse      atomic.Int64
	peak       atomic.Int64
}

func newHintedSim(hint, rendezvous int) *hintedSim {
	return &hintedSim{hint: hint, rendezvous: rendezvous, open: make(chan struct{})}
}

func (h *hintedSim) EvalConcurrency() int { return h.hint }

func (h *hintedSim) Run(ctx context.Context, p Point) (float64, error) {
	cur := h.inUse.Add(1)
	defer h.inUse.Add(-1)
	for {
		prev := h.peak.Load()
		if cur <= prev || h.peak.CompareAndSwap(prev, cur) {
			break
		}
	}
	if h.arrived.Add(1) == int64(h.rendezvous) {
		close(h.open)
	}
	select {
	case <-h.open:
		return p["x"] * p["x"], nil
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-time.After(10 * time.Second):
		return 0, fmt.Errorf("barrier never filled: %d of %d evaluations arrived (pool too narrow)",
			h.arrived.Load(), h.rendezvous)
	}
}

// TestConcurrencyHintWidensDefaultPool proves the hint takes effect
// when Workers is unset: the batch rendezvous requires hint-many
// simultaneous evaluations, which GOMAXPROCS workers alone could not
// satisfy if the hint were ignored (every evaluation would park at the
// barrier and time out with a descriptive error).
func TestConcurrencyHintWidensDefaultPool(t *testing.T) {
	hint := runtime.GOMAXPROCS(0) + 3
	sim := newHintedSim(hint, hint)
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: hint},
		MaxEvaluations: hint,
		Seed:           1, // Workers deliberately unset
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != hint {
		t.Fatalf("history length = %d, want %d", len(res.History), hint)
	}
	if got := sim.peak.Load(); got < int64(hint) {
		t.Errorf("peak concurrency = %d, want >= hint %d", got, hint)
	}
}

// TestExplicitWorkersOverridesHint: a user-set Workers count wins over
// the simulator's hint, keeping the evaluation pool narrow — Evaluate's
// slot gate never has more than Workers evaluations running, however
// wide the batch. The rendezvous of 2 makes the bound tight: the pool
// does reach 2.
func TestExplicitWorkersOverridesHint(t *testing.T) {
	sim := newHintedSim(16, 2)
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: 16},
		MaxEvaluations: 64,
		Workers:        2,
		Seed:           1,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sim.peak.Load(); got != 2 {
		t.Errorf("peak concurrency = %d with Workers=2, want exactly 2 (<= Workers, and the rendezvous needs 2)", got)
	}
}

// TestHintBelowGOMAXPROCSIsIgnored: the hint only ever widens the
// default pool, it never narrows it.
func TestHintBelowGOMAXPROCSIsIgnored(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	sim := newHintedSim(1, 2) // finishes only if two evaluations overlap
	c := &Calibrator{
		Space:          testSpace,
		Simulator:      sim,
		Algorithm:      randomSearch{batch: 32},
		MaxEvaluations: 128,
		Seed:           1,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sim.peak.Load(); got < 2 {
		t.Errorf("peak concurrency = %d, want >= 2 (hint of 1 must not narrow the pool)", got)
	}
}
