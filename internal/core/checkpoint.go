package core

import (
	"encoding/json"
	"errors"
	"fmt"
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
// A job's journal (simcald's) also has an opaque job field in its header
// (CreateJournal) and may end with one opaque closing line (EndJournal).

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
	// Job is opaque to core: the data of the job the run is, if any.
	Job json.RawMessage `json:"job,omitempty"`
}

// journalRecord is every later line: a submission,
// {"submit":seq,"unit":[…]}, a consumption,
// {"consume":seq,"loss":…,"elapsedNanos":…}, or the closing line,
// {"end":…}.
type journalRecord struct {
	Submit    *int            `json:"submit"`
	Consume   *int            `json:"consume"`
	Unit      []float64       `json:"unit"`
	Loss      *obs.Float      `json:"loss"`
	ElapsedNS int64           `json:"elapsedNanos"`
	End       json.RawMessage `json:"end"`
}

// ErrJournalEnded refuses to resume a journal that holds a closing line:
// the run it records is over.
var ErrJournalEnded = errors.New("the journal has ended: the run it records is over")

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
		b = obs.Float(loss).AppendJSON(b)
	} else {
		b = strconv.AppendFloat(b, loss, 'g', -1, 64)
	}
	b = append(b, `,"elapsedNanos":`...)
	b = strconv.AppendInt(b, int64(elapsed), 10)
	return append(b, '}')
}

// journalState indexes what a calibration journal holds. The run builds
// it from the one read of the file, when OpenJournal opens it, and it
// serves four purposes: the header check (the journal is this run's),
// the lines a resumed run never appends again, the replay source, and
// the elapsed offset the run continues from. ReadJournal builds one the
// same way, without opening the file for writing. Every check runs before
// anything is recorded, so a rejected (torn) last line leaves the state
// as the intact lines left it.
type journalState struct {
	want     *journalHeader // the identity the header must carry, if any
	hdr      journalHeader
	units    map[int][]float64 // every submission's unit, by seq
	consumed map[int]journaled // every consumption, by seq
	order    []int             // the consumed seqs in consumption order
	elapsed  time.Duration     // the latest consumption's elapsed offset
	end      json.RawMessage   // the closing line's record, nil before it
	live     bool              // a run continues the journal: a closing line refuses it
}

// journaled is one consumption a journal holds.
type journaled struct {
	loss    float64
	elapsed time.Duration
}

func newJournalState(want *journalHeader) journalState {
	return journalState{want: want, units: make(map[int][]float64), consumed: make(map[int]journaled)}
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
	if w := s.want; w != nil && (h.Algorithm != w.Algorithm || h.Seed != w.Seed || !slices.Equal(h.Space, w.Space)) {
		return fmt.Errorf("the journal is for %s seed %d over %v, this calibration is %s seed %d over %v",
			h.Algorithm, h.Seed, h.Space, w.Algorithm, w.Seed, w.Space)
	}
	s.hdr = h
	return nil
}

func (s *journalState) record(line []byte) error {
	var r journalRecord
	if err := json.Unmarshal(line, &r); err != nil {
		return err
	}
	switch {
	case s.end != nil:
		return errors.New("a record after the journal's end")
	case r.Submit != nil && r.Consume == nil && r.Loss == nil && r.End == nil:
		seq := *r.Submit
		_, dup := s.units[seq]
		switch {
		case seq < 0 || dup:
			return fmt.Errorf("submission %d is negative or repeated", seq)
		case len(r.Unit) != len(s.hdr.Space):
			return fmt.Errorf("submission %d has %d unit coordinates for a %d-dimensional space",
				seq, len(r.Unit), len(s.hdr.Space))
		case slices.ContainsFunc(r.Unit, func(u float64) bool { return math.IsNaN(u) || math.IsInf(u, 0) }):
			return fmt.Errorf("submission %d has a non-finite unit coordinate", seq)
		}
		s.units[seq] = r.Unit
	case r.Consume != nil && r.Submit == nil && r.Unit == nil && r.Loss != nil && r.End == nil:
		seq := *r.Consume
		_, submitted := s.units[seq]
		_, repeated := s.consumed[seq]
		if !submitted || repeated || r.ElapsedNS < 0 {
			return fmt.Errorf("consumption of submission %d: never submitted, repeated, or at negative elapsed time", seq)
		}
		elapsed := time.Duration(r.ElapsedNS)
		s.consumed[seq] = journaled{loss: float64(*r.Loss), elapsed: elapsed}
		s.order = append(s.order, seq)
		s.elapsed = max(s.elapsed, elapsed)
	case r.End != nil && r.Submit == nil && r.Consume == nil && r.Unit == nil && r.Loss == nil:
		if s.live {
			return ErrJournalEnded
		}
		s.end = r.End
	default:
		return errors.New("neither a submission, a consumption nor an end")
	}
	return nil
}

// journalID is the identity this calibration's journal carries.
func (c *Calibrator) journalID() journalHeader {
	names := make([]string, len(c.Space))
	for i, spec := range c.Space {
		names[i] = spec.Name
	}
	return journalHeader{Kind: journalKind, Algorithm: c.Algorithm.Name(), Seed: c.Seed, Space: names}
}

// JournalRun is what a calibration journal records: the identity of the
// run that wrote it and the consumptions it made, in order.
type JournalRun struct {
	Algorithm string
	Seed      int64
	Space     []string // the parameter names, in Space order
	// Order is the consumed submissions' sequence numbers in consumption
	// order: an asynchronous run's completion order, the order
	// AsyncBayesOpt.Replay forces.
	Order []int
	// History is the consumptions in the same order, as the run's
	// Result.History holds them, less the decoded Point.
	History []Sample
	// Job is the header's job field (CreateJournal) and End the closing
	// line's record (EndJournal); each is nil when the journal has none.
	Job, End json.RawMessage
}

// ReadJournal reads the calibration journal at path — a Checkpoint
// run's or a service job's — with resume's checks: the header must be a
// calibration journal's and, when run is non-nil, carry run's algorithm,
// seed and space; every line before the last must be intact. A torn last
// line is skipped, and the file is never opened for writing. A journal
// corrupt after its header returns what precedes the corruption, too.
func ReadJournal(path string, run *Calibrator) (*JournalRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading journal: %w", err)
	}
	var want *journalHeader
	if run != nil {
		id := run.journalID()
		want = &id
	}
	s := newJournalState(want)
	if _, err = scanJournal(data, s.header, s.record); err != nil {
		err = fmt.Errorf("core: journal %s: %w", path, err)
		if s.hdr.Kind == "" {
			return nil, err
		}
	}
	return s.run(), err
}

// run is what the state holds, as ReadJournal returns it.
func (s *journalState) run() *JournalRun {
	r := &JournalRun{Algorithm: s.hdr.Algorithm, Seed: s.hdr.Seed, Space: s.hdr.Space, Order: s.order, Job: s.hdr.Job, End: s.end}
	for _, seq := range s.order {
		c := s.consumed[seq]
		r.History = append(r.History, Sample{Unit: s.units[seq], Loss: c.loss, Elapsed: c.elapsed})
	}
	return r
}

// Result is the Result the journaled run returned, less Elapsed, which
// the journal does not hold: each Point decoded from its unit through
// space (the journal's), and Best chosen by Problem.record's rule — the
// zero Sample when nothing was consumed.
func (r *JournalRun) Result(space Space) (*Result, error) {
	if !slices.EqualFunc(space, r.Space, func(p ParamSpec, name string) bool { return p.Name == name }) {
		return nil, fmt.Errorf("core: the journal is over %v, not the space given", r.Space)
	}
	p := &Problem{Space: space}
	for _, s := range r.History {
		s.Point = space.Decode(s.Unit)
		p.record(s)
	}
	res := &Result{History: p.History(), Evaluations: p.Evaluations(), Algorithm: r.Algorithm}
	if best := p.Best(); best != nil {
		res.Best = *best
	}
	return res, nil
}

// CreateJournal creates run's journal at path, replacing any file there,
// with job as its header's job field: the journal a resumed run
// (Calibrator.Resume) continues, and JournalRun.Job hands the field back.
func CreateJournal(path string, run *Calibrator, job any) error {
	id := run.journalID()
	var err error
	if id.Job, err = json.Marshal(job); err != nil {
		return err
	}
	hdr, _ := json.Marshal(id) // id.Job is valid JSON: it cannot fail
	return createJournal(path, hdr)
}

// EndJournal appends the closing line, {"end":end}, to the journal at
// path, which no run may hold open. No line may follow it, and a run
// refuses to resume the journal with ErrJournalEnded.
func EndJournal(path string, end any) error {
	line, err := json.Marshal(map[string]any{"end": end})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err == nil {
		err = (&Journal{f: f, buf: append(line, '\n')}).Close()
	}
	return err
}

// calJournal is one calibration run's journal: what the file held when
// the run opened it, and the file the run appends to. Its methods run on
// the algorithm's driver goroutine, like the submissions and
// consumptions they record.
type calJournal struct {
	held journalState
	j    *Journal // nil when the run is unjournaled
	fobs FaultObserver
	line []byte // scratch for one record line
}

// openCalJournal opens the run's journal at path, the one read of the
// file. A fresh run replaces any file there. A resumed run indexes what
// the file holds and appends to it; a missing file starts it fresh. A
// file that cannot be read, or is not this run's journal (another run's,
// an old snapshot, corrupt before its last line, ended), is an error, and
// the file is left as it was. Any other failure is reported and the run goes
// on unjournaled:
// losing the journal must never kill the run it exists to protect.
func openCalJournal(path string, id journalHeader, resume bool, fobs FaultObserver) (*calJournal, error) {
	cj := &calJournal{held: newJournalState(&id), fobs: fobs}
	cj.held.live = true
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
	if errors.As(err, new(refusedJournalError)) {
		return nil, err
	}
	if err != nil {
		cj.fail(err)
	}
	return cj, nil
}

// submitted journals a submission the file does not already hold.
func (cj *calJournal) submitted(seq int, unit []float64) {
	if _, held := cj.held.units[seq]; !held && cj.j != nil {
		cj.line = appendSubmitLine(cj.line[:0], seq, unit)
		cj.j.Append(cj.line)
	}
}

// consumed journals a consumption the file does not already hold.
func (cj *calJournal) consumed(seq int, s Sample) {
	if _, held := cj.held.consumed[seq]; !held && cj.j != nil {
		cj.line = appendConsumeLine(cj.line[:0], seq, s.Loss, s.Elapsed)
		cj.j.Append(cj.line)
	}
}

// sync makes the lines appended since the last boundary durable. A
// failed write ends journaling for the run: the file keeps the prefix
// that reached it, which is still a journal a run can resume from.
func (cj *calJournal) sync(evaluations int) {
	if cj.j == nil || len(cj.j.buf) == 0 {
		return
	}
	if err := cj.j.Sync(); err != nil {
		cj.fail(err)
		cj.j.f.Close()
		cj.j = nil
		return
	}
	if cj.fobs != nil {
		cj.fobs.CheckpointWritten(evaluations)
	}
}

func (cj *calJournal) fail(err error) {
	if cj.fobs != nil {
		cj.fobs.CheckpointFailed(fmt.Errorf("core: journaling the calibration: %w", err))
	}
}

// close syncs what is left and closes the file.
func (cj *calJournal) close(evaluations int) {
	if cj.sync(evaluations); cj.j != nil {
		cj.j.Close()
	}
}
