package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"time"

	"simcal/internal/obs"
)

// Checkpoint/resume for long calibrations. A calibration with a
// Checkpoint path keeps an evaluation journal (see Journal): a header
// with the (algorithm, seed, space) identity that makes the run
// deterministic, then a line per submission (seq, unit) and one per
// consumption (seq, loss, elapsed), in the order the engine made them.
// Resume replays the algorithm from scratch, serving the journaled
// consumptions in their journaled order and verifying every proposed
// unit against the journaled one; the algorithm draws exactly the random
// numbers it drew originally, so the run continues bitwise-identically.

// Checkpoint is the state a calibration journal holds, derived when the
// journal is read.
type Checkpoint struct {
	// Algorithm, Seed and Space (parameter names in declaration order)
	// are the run's identity; resume requires an exact match.
	Algorithm string
	Seed      int64
	Space     []string
	// Elapsed is the latest consumption's elapsed offset; a resumed run
	// continues its elapsed axis from it.
	Elapsed time.Duration
	// Samples is the consumed history in consumption order. Points are
	// nil: replay decodes them from the verified units.
	Samples []Sample
	// Order gives each sample's submission sequence number; a resumed run
	// force-consumes in this order. The reader always fills it in; a
	// Checkpoint built in memory may leave it empty for submission order.
	Order []int
	// InFlight lists the evaluations submitted but not consumed, by seq.
	// Resume verifies their re-proposals bitwise and runs them for real.
	InFlight []AsyncPending
}

const (
	journalKind = "simcal-calibration-journal"
	// snapshotKind is the one-document checkpoint earlier versions wrote;
	// it is recognized only to be named in the error.
	snapshotKind = "simcal-calibration-checkpoint"
)

// journalHeader is a calibration journal's first line.
type journalHeader struct {
	Kind      string   `json:"kind"`
	Algorithm string   `json:"algorithm"`
	Seed      int64    `json:"seed"`
	Space     []string `json:"space"`
}

// journalRecord is every later line: a submission,
// {"submit":seq,"unit":[…]}, or a consumption,
// {"consume":seq,"loss":…,"elapsedNanos":…}.
type journalRecord struct {
	Submit    *int       `json:"submit"`
	Consume   *int       `json:"consume"`
	Unit      []float64  `json:"unit"`
	Loss      *obs.Float `json:"loss"`
	ElapsedNS int64      `json:"elapsedNanos"`
}

// appendSubmitLine and appendConsumeLine encode the two record lines
// without allocating: the engine writes one of each per evaluation.
func appendSubmitLine(b []byte, seq int, unit []float64) []byte {
	b = append(b, `{"submit":`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, `,"unit":[`...)
	for i, u := range unit {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, u, 'g', -1, 64)
	}
	return append(b, "]}"...)
}

func appendConsumeLine(b []byte, seq int, loss float64, elapsed time.Duration) []byte {
	b = append(b, `{"consume":`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, `,"loss":`...)
	if math.IsInf(loss, 0) || math.IsNaN(loss) {
		sentinel, _ := obs.Float(loss).MarshalJSON()
		b = append(b, sentinel...)
	} else {
		b = strconv.AppendFloat(b, loss, 'g', -1, 64)
	}
	b = append(b, `,"elapsedNanos":`...)
	b = strconv.AppendInt(b, int64(elapsed), 10)
	return append(b, '}')
}

// journalState accumulates a journal's lines into a Checkpoint. Every
// check runs before anything is recorded, so a rejected (torn) last
// line leaves the state as the intact lines left it.
type journalState struct {
	want     *journalHeader // the identity the header must carry, if any
	ck       Checkpoint
	units    map[int][]float64 // every submission's unit, by seq
	consumed map[int]bool
}

func newJournalState(want *journalHeader) *journalState {
	return &journalState{want: want, units: make(map[int][]float64), consumed: make(map[int]bool)}
}

func (s *journalState) header(line []byte) error {
	var h journalHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("corrupt header: %w", err)
	}
	switch {
	case h.Kind == snapshotKind:
		return errors.New("this is a snapshot checkpoint, a format earlier versions wrote and this one does not read; delete it to start the calibration afresh")
	case h.Kind != journalKind:
		return fmt.Errorf("not a calibration journal (kind %q)", h.Kind)
	case h.Algorithm == "" || len(h.Space) == 0:
		return errors.New("journal without an algorithm or a parameter space")
	}
	if s.want != nil {
		if err := s.want.matches(h.Algorithm, h.Seed, h.Space); err != nil {
			return fmt.Errorf("the journal %w", err)
		}
	}
	s.ck.Algorithm, s.ck.Seed, s.ck.Space = h.Algorithm, h.Seed, h.Space
	return nil
}

func (s *journalState) record(line []byte) error {
	var r journalRecord
	if err := json.Unmarshal(line, &r); err != nil {
		return err
	}
	switch {
	case r.Submit != nil && r.Consume == nil && r.Loss == nil:
		seq := *r.Submit
		_, dup := s.units[seq]
		switch {
		case seq < 0 || dup:
			return fmt.Errorf("submission %d is negative or repeated", seq)
		case len(r.Unit) != len(s.ck.Space):
			return fmt.Errorf("submission %d has %d unit coordinates for a %d-dimensional space",
				seq, len(r.Unit), len(s.ck.Space))
		case slices.ContainsFunc(r.Unit, func(u float64) bool { return math.IsNaN(u) || math.IsInf(u, 0) }):
			return fmt.Errorf("submission %d has a non-finite unit coordinate", seq)
		}
		s.units[seq] = r.Unit
	case r.Consume != nil && r.Submit == nil && r.Unit == nil && r.Loss != nil:
		seq := *r.Consume
		unit, submitted := s.units[seq]
		if !submitted || s.consumed[seq] || r.ElapsedNS < 0 {
			return fmt.Errorf("consumption of submission %d: never submitted, repeated, or at negative elapsed time", seq)
		}
		s.consumed[seq] = true
		elapsed := time.Duration(r.ElapsedNS)
		s.ck.Samples = append(s.ck.Samples, Sample{Unit: unit, Loss: float64(*r.Loss), Elapsed: elapsed})
		s.ck.Order = append(s.ck.Order, seq)
		s.ck.Elapsed = max(s.ck.Elapsed, elapsed)
	default:
		return errors.New("neither a submission nor a consumption")
	}
	return nil
}

// matches reports, as an error, an identity that is not the run's.
func (h journalHeader) matches(alg string, seed int64, space []string) error {
	if alg != h.Algorithm || seed != h.Seed || !slices.Equal(space, h.Space) {
		return fmt.Errorf("is for %s seed %d over %v, this calibration is %s seed %d over %v",
			alg, seed, space, h.Algorithm, h.Seed, h.Space)
	}
	return nil
}

// checkpoint derives the in-flight frontier — submitted, not consumed —
// and returns the journal's state.
func (s *journalState) checkpoint() *Checkpoint {
	ck := s.ck
	for seq, unit := range s.units {
		if !s.consumed[seq] {
			ck.InFlight = append(ck.InFlight, AsyncPending{Seq: seq, Unit: unit})
		}
	}
	slices.SortFunc(ck.InFlight, func(a, b AsyncPending) int { return a.Seq - b.Seq })
	return &ck
}

// ReadJournal parses and validates a calibration journal. A torn last
// line is ignored, as OpenJournal would truncate it; any other
// corruption returns an error, never a panic.
func ReadJournal(in io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("core: reading journal: %w", err)
	}
	s := newJournalState(nil)
	if _, err := scanJournal(data, s.header, s.record); err != nil {
		return nil, fmt.Errorf("core: calibration journal: %w", err)
	}
	return s.checkpoint(), nil
}

// LoadCheckpoint reads the calibration journal at path. The underlying
// filesystem error is preserved (wrapped), so callers can distinguish a
// missing file (fresh start) from a corrupt one with errors.Is(err,
// fs.ErrNotExist).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening checkpoint: %w", err)
	}
	defer f.Close()
	return ReadJournal(f)
}

// calJournal journals one calibration run. Its methods run on the
// algorithm's driver goroutine, like the submissions and consumptions
// they record.
type calJournal struct {
	j    *Journal
	fobs FaultObserver
	held *journalState // what the file held when the run opened it
	line []byte        // scratch for one record line
}

// openCalJournal starts the run's journal at path: a fresh run replaces
// any file there, a resumed one appends to the journal it read. A
// failure is reported and leaves the run unjournaled (nil) — losing the
// journal must never kill the run it exists to protect.
func openCalJournal(path string, id journalHeader, resume bool, fobs FaultObserver) *calJournal {
	cj := &calJournal{fobs: fobs, held: newJournalState(&id)}
	var err error
	if !resume {
		if err = os.Remove(path); errors.Is(err, os.ErrNotExist) {
			err = nil
		}
	}
	if err == nil {
		hdr, _ := json.Marshal(id)
		cj.j, err = OpenJournal(path, hdr, cj.held.header, cj.held.record)
	}
	if err != nil {
		cj.fail(err)
		return nil
	}
	return cj
}

// submitted journals a submission the file does not already hold.
func (cj *calJournal) submitted(seq int, unit []float64) {
	if _, held := cj.held.units[seq]; !held {
		cj.line = appendSubmitLine(cj.line[:0], seq, unit)
		cj.j.Append(cj.line)
	}
}

// consumed journals a consumption the file does not already hold.
func (cj *calJournal) consumed(seq int, s Sample) {
	if !cj.held.consumed[seq] {
		cj.line = appendConsumeLine(cj.line[:0], seq, s.Loss, s.Elapsed)
		cj.j.Append(cj.line)
	}
}

// sync makes the lines appended since the last boundary durable and
// reports whether journaling goes on. A failed write ends it for the
// run: the file keeps the prefix that reached it, which is still a
// journal a run can resume from.
func (cj *calJournal) sync(evaluations int) bool {
	if len(cj.j.buf) == 0 {
		return true
	}
	if err := cj.j.Sync(); err != nil {
		cj.fail(err)
		cj.j.f.Close()
		return false
	}
	if cj.fobs != nil {
		cj.fobs.CheckpointWritten(evaluations)
	}
	return true
}

func (cj *calJournal) fail(err error) {
	if cj.fobs != nil {
		cj.fobs.CheckpointFailed(fmt.Errorf("core: journaling the calibration: %w", err))
	}
}

// close syncs what is left and closes the file. It is a no-op on a nil
// (unjournaled) run.
func (cj *calJournal) close(evaluations int) {
	if cj != nil && cj.sync(evaluations) {
		cj.j.Close()
	}
}
