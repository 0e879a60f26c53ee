package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"simcal/internal/obs"
)

// Checkpoint/resume for long calibrations: a checkpoint is a snapshot of
// everything needed to continue a killed run — the evaluation history
// (units, decoded points, losses, per-sample elapsed offsets), the
// evaluation count, and the elapsed wall-clock offset, keyed by the
// (algorithm, seed, space) identity that makes the run deterministic.
//
// The RNG cursor is not stored explicitly: resume replays the
// deterministic algorithm from scratch, serving the first
// len(Samples) evaluations from the checkpoint instead of the
// simulator. The algorithm consumes exactly the random draws it
// consumed originally (same seed, same evaluation results), so by the
// end of replay the RNG sits at the recorded cursor and the run
// continues bitwise-identically to an uninterrupted one. Replay
// verifies every proposed unit position against the stored one, so a
// checkpoint from a different configuration fails loudly instead of
// silently corrupting the search.

// Checkpoint is an in-progress calibration snapshot.
type Checkpoint struct {
	// Algorithm is the search algorithm's name; resume requires an exact
	// match.
	Algorithm string
	// Seed is the calibration seed; resume requires an exact match.
	Seed int64
	// Space lists the calibrated parameter names in declaration order;
	// resume requires an exact match.
	Space []string
	// Evaluations is the number of completed evaluations at snapshot
	// time (== len(Samples)).
	Evaluations int
	// Elapsed is the calibration wall-clock at snapshot time; resumed
	// runs continue their elapsed axis from this offset.
	Elapsed time.Duration
	// Samples is the evaluation history in completion order.
	Samples []Sample
	// Order gives each sample's submission sequence number,
	// index-aligned with Samples: history is in consumption order, and
	// a resumed run force-consumes completions in this order, which is
	// what makes its replay bitwise-identical. A batch run consumes in
	// submission order, so its order is the identity — which is left out
	// of the file, and which an empty Order means. ReadCheckpoint always
	// fills it in.
	Order []int
	// InFlight, present for asynchronous runs, lists evaluations that
	// were submitted but not yet consumed at snapshot time. On resume
	// the algorithm re-proposes them deterministically (verified
	// bitwise against these records) and they are evaluated for real.
	InFlight []AsyncPending
}

// CheckpointSpec configures periodic checkpointing on a Calibrator.
type CheckpointSpec struct {
	// Path is the snapshot file; each write replaces it atomically
	// (write-tmp-then-rename), so a crash mid-write leaves the previous
	// snapshot intact.
	Path string
	// Every is the minimum number of completed evaluations between
	// snapshots; <= 0 defaults to 32. Snapshots land on consumption
	// boundaries: after a whole batch is recorded for Evaluate (which is
	// what makes resumed replay align with a batch algorithm's
	// proposals), after each consumed completion for Next/NextSeq. There
	// is one file layout for both — samples, their consumption order
	// (omitted when it is the identity, as it is for every batch run)
	// and the submitted-but-unconsumed frontier (empty at a batch
	// boundary).
	Every int
}

const checkpointDocKind = "simcal-calibration-checkpoint"

// identity returns the order 0, 1, …, n-1: a batch run's.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// identityOrder reports whether order[i] == i throughout.
func identityOrder(order []int) bool {
	for i, seq := range order {
		if seq != i {
			return false
		}
	}
	return true
}

type checkpointDoc struct {
	Kind        string            `json:"kind"` // "simcal-calibration-checkpoint"
	Algorithm   string            `json:"algorithm"`
	Seed        int64             `json:"seed"`
	Space       []string          `json:"space"`
	Evaluations int               `json:"evaluations"`
	ElapsedNS   int64             `json:"elapsedNanos"`
	Samples     []ckptSampleDoc   `json:"samples"`
	Order       []int             `json:"order,omitempty"`
	InFlight    []ckptInflightDoc `json:"inflight,omitempty"`
}

type ckptInflightDoc struct {
	Seq  int       `json:"seq"`
	Unit []float64 `json:"unit"`
}

type ckptSampleDoc struct {
	Unit      []float64            `json:"unit"`
	Point     map[string]obs.Float `json:"point"`
	Loss      obs.Float            `json:"loss"`
	ElapsedNS int64                `json:"elapsedNanos"`
}

// WriteJSON serializes the checkpoint to w.
func (c *Checkpoint) WriteJSON(w io.Writer) error {
	doc := checkpointDoc{
		Kind:        checkpointDocKind,
		Algorithm:   c.Algorithm,
		Seed:        c.Seed,
		Space:       c.Space,
		Evaluations: c.Evaluations,
		ElapsedNS:   int64(c.Elapsed),
		Samples:     make([]ckptSampleDoc, 0, len(c.Samples)),
	}
	for _, s := range c.Samples {
		pt := make(map[string]obs.Float, len(s.Point))
		for k, v := range s.Point {
			pt[k] = obs.Float(v)
		}
		doc.Samples = append(doc.Samples, ckptSampleDoc{
			Unit:      s.Unit,
			Point:     pt,
			Loss:      obs.Float(s.Loss),
			ElapsedNS: int64(s.Elapsed),
		})
	}
	if !identityOrder(c.Order) {
		doc.Order = c.Order
	}
	for _, rec := range c.InFlight {
		doc.InFlight = append(doc.InFlight, ckptInflightDoc{Seq: rec.Seq, Unit: rec.Unit})
	}
	return json.NewEncoder(w).Encode(doc)
}

// WriteFile atomically replaces path with this checkpoint (see
// WriteFileAtomic).
func (c *Checkpoint) WriteFile(path string) error {
	if err := WriteFileAtomic(path, c.WriteJSON); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return nil
}

// WriteFileAtomic replaces path with what write produces: the bytes go
// to a temporary file in the same directory, are fsynced, and the file
// is renamed over path. A crash at any point leaves either the old
// contents or the new ones, never a torn file; on failure the temporary
// file is removed.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// ReadCheckpoint parses and validates a checkpoint previously written
// with WriteJSON/WriteFile. Corrupted or truncated documents return an
// error, never panic.
func ReadCheckpoint(in io.Reader) (*Checkpoint, error) {
	var doc checkpointDoc
	if err := json.NewDecoder(in).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if doc.Kind != checkpointDocKind {
		return nil, fmt.Errorf("core: unexpected document kind %q", doc.Kind)
	}
	if doc.Algorithm == "" {
		return nil, fmt.Errorf("core: checkpoint without an algorithm")
	}
	if len(doc.Space) == 0 {
		return nil, fmt.Errorf("core: checkpoint without a parameter space")
	}
	if doc.Evaluations != len(doc.Samples) {
		return nil, fmt.Errorf("core: checkpoint evaluation count %d != %d stored samples",
			doc.Evaluations, len(doc.Samples))
	}
	if doc.ElapsedNS < 0 {
		return nil, fmt.Errorf("core: checkpoint with negative elapsed time")
	}
	ck := &Checkpoint{
		Algorithm:   doc.Algorithm,
		Seed:        doc.Seed,
		Space:       doc.Space,
		Evaluations: doc.Evaluations,
		Elapsed:     time.Duration(doc.ElapsedNS),
		Samples:     make([]Sample, 0, len(doc.Samples)),
	}
	for i, s := range doc.Samples {
		if len(s.Unit) != len(doc.Space) {
			return nil, fmt.Errorf("core: checkpoint sample %d has %d unit coordinates for a %d-dimensional space",
				i, len(s.Unit), len(doc.Space))
		}
		for _, u := range s.Unit {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				return nil, fmt.Errorf("core: checkpoint sample %d has a non-finite unit coordinate", i)
			}
		}
		pt := make(Point, len(s.Point))
		for k, v := range s.Point {
			pt[k] = float64(v)
		}
		ck.Samples = append(ck.Samples, Sample{
			Unit:    s.Unit,
			Point:   pt,
			Loss:    float64(s.Loss),
			Elapsed: time.Duration(s.ElapsedNS),
		})
	}
	// Engine state: a completion order must cover the samples exactly
	// (it is index-aligned with them) and a missing one is the identity;
	// every sequence number appears at most once across order and
	// in-flight records, and in-flight units must be well-formed —
	// resume would feed them straight back into the bitwise replay
	// verifier.
	if len(doc.Order) == 0 {
		doc.Order = identity(len(doc.Samples))
	}
	if len(doc.Order) != len(doc.Samples) {
		return nil, fmt.Errorf("core: checkpoint completion order has %d entries for %d samples",
			len(doc.Order), len(doc.Samples))
	}
	seen := make(map[int]bool, len(doc.Order)+len(doc.InFlight))
	for _, seq := range doc.Order {
		if seq < 0 {
			return nil, fmt.Errorf("core: checkpoint completion order has negative sequence %d", seq)
		}
		if seen[seq] {
			return nil, fmt.Errorf("core: checkpoint completion order repeats sequence %d", seq)
		}
		seen[seq] = true
	}
	ck.Order = doc.Order
	for i, rec := range doc.InFlight {
		if rec.Seq < 0 {
			return nil, fmt.Errorf("core: checkpoint in-flight record %d has negative sequence %d", i, rec.Seq)
		}
		if seen[rec.Seq] {
			return nil, fmt.Errorf("core: checkpoint in-flight record %d repeats sequence %d", i, rec.Seq)
		}
		seen[rec.Seq] = true
		if len(rec.Unit) != len(doc.Space) {
			return nil, fmt.Errorf("core: checkpoint in-flight record %d has %d unit coordinates for a %d-dimensional space",
				i, len(rec.Unit), len(doc.Space))
		}
		for _, u := range rec.Unit {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				return nil, fmt.Errorf("core: checkpoint in-flight record %d has a non-finite unit coordinate", i)
			}
		}
		ck.InFlight = append(ck.InFlight, AsyncPending{Seq: rec.Seq, Unit: rec.Unit})
	}
	return ck, nil
}

// LoadCheckpoint reads a checkpoint file. The underlying filesystem
// error is preserved (wrapped), so callers can distinguish a missing
// file (fresh start) from a corrupt one with errors.Is(err,
// fs.ErrNotExist).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// checkpointer writes periodic snapshots for one calibration run.
type checkpointer struct {
	path      string
	every     int
	algorithm string
	seed      int64
	space     []string
	fobs      FaultObserver
	lastEvals int // evaluation count at the last snapshot (or resume point)
}

// write snapshots the given state. Failures degrade gracefully: the
// calibration continues (and keeps retrying on later boundaries), the
// failure is only reported through the observer — losing a snapshot
// must never kill the run it exists to protect.
func (ck *checkpointer) write(evals int, elapsed time.Duration, history []Sample, order []int, inflight []AsyncPending) {
	snap := &Checkpoint{
		Algorithm:   ck.algorithm,
		Seed:        ck.seed,
		Space:       ck.space,
		Evaluations: evals,
		Elapsed:     elapsed,
		Samples:     history,
		Order:       order,
		InFlight:    inflight,
	}
	if err := snap.WriteFile(ck.path); err != nil {
		if ck.fobs != nil {
			ck.fobs.CheckpointFailed(err)
		}
		return
	}
	ck.lastEvals = evals
	if ck.fobs != nil {
		ck.fobs.CheckpointWritten(evals)
	}
}
