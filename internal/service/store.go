package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
)

// Durable job state, when Config.StateDir is set, is one file per job:
// its evaluation journal <id>.journal.jsonl. Submit creates it, with the
// request in its header, before the job can be dispatched; the
// calibration appends to it; the terminal transition closes it with one
// jobEnd line. A journal without one is an interrupted job. Journals are
// kept: each is its job's replay record, and DELETE deletes nothing.

// jobHeader is the job field of a journal's header.
type jobHeader struct {
	Request         JobRequest `json:"request"`
	SubmittedUnixNS int64      `json:"submitted_unix_ns"`
}

// jobEnd is a journal's closing line. StartedUnixNS is absent for a job
// that never started (canceled while pending), and in the end lines of
// journals written before it was recorded: such a job reloads with no
// start time.
type jobEnd struct {
	State          State  `json:"state"`
	Error          string `json:"error,omitempty"`
	StartedUnixNS  int64  `json:"started_unix_ns,omitempty"`
	FinishedUnixNS int64  `json:"finished_unix_ns"`
	ElapsedNS      int64  `json:"elapsed_ns"`
}

const journalSuffix = ".journal.jsonl"

func (s *Server) journalPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+journalSuffix)
}

// createJournal creates a new job's journal. Called before the job can
// be dispatched: a job that exists has a journal.
func (s *Server) createJournal(j *Job) error {
	if s.cfg.StateDir == "" {
		return nil
	}
	run := &core.Calibrator{Space: j.space, Algorithm: j.alg, Seed: j.Request.Seed}
	hdr := jobHeader{Request: j.Request, SubmittedUnixNS: j.submitted.UnixNano()}
	if err := core.CreateJournal(s.journalPath(j.ID), run, hdr); err != nil {
		return fmt.Errorf("%w: %v", errJournal, err)
	}
	return nil
}

// errJournal refuses a job whose journal could not be created.
var errJournal = errors.New("service: creating the job's journal")

// load reads every journal in the state dir into a job, in submission
// order. Called from NewServer before any dispatch. A state dir an
// earlier version wrote — a job record, or a journal without a job
// header — fails the startup with an error naming the file.
func (s *Server) load() error {
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("service: state dir: %w", err)
	}
	if old, _ := filepath.Glob(filepath.Join(s.cfg.StateDir, "*.job.json")); len(old) > 0 {
		return fmt.Errorf("service: %s is a job record an earlier version wrote, which this one does not read", old[0])
	}
	paths, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "*"+journalSuffix))
	if err != nil {
		return err
	}
	sort.Strings(paths) // job IDs are zero-padded, so lexical = submission order
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range paths {
		if err := s.loadJobLocked(p); err != nil {
			return err
		}
	}
	return nil
}

// loadJobLocked rebuilds one job from its journal. Caller holds mu.
func (s *Server) loadJobLocked(path string) error {
	jr, err := core.ReadJournal(path, nil)
	if jr == nil {
		return fmt.Errorf("service: %w", err)
	}
	var hdr jobHeader
	var end jobEnd
	if json.Unmarshal(jr.Job, &hdr) != nil {
		return fmt.Errorf("service: journal %s has no job header: an earlier version or simcal wrote it", path)
	}
	if jr.End != nil && (json.Unmarshal(jr.End, &end) != nil || !end.State.Terminal()) {
		return fmt.Errorf("service: journal %s: malformed end line", path)
	}
	j := &Job{
		ID:        strings.TrimSuffix(filepath.Base(path), journalSuffix),
		Tenant:    hdr.Request.Tenant,
		Request:   hdr.Request,
		submitted: time.Unix(0, hdr.SubmittedUnixNS),
	}
	var n int
	if _, err := fmt.Sscanf(j.ID, "j-%d", &n); err == nil && n >= s.nextID {
		s.nextID = n + 1
	}
	s.addLocked(j)

	// A journal corrupt before its last line, or a spec or algorithm the
	// restarted binary no longer accepts, fails the job instead of the
	// whole startup; the journal is left as it was.
	if err == nil {
		j.space, err = s.cfg.Resolve(j.Request.Spec)
	}
	var res *core.Result
	if err == nil && jr.End != nil {
		res, err = jr.Result(j.space)
	} else if err == nil {
		j.alg, err = s.cfg.Algorithm(j.Request.Algorithm)
	}
	switch {
	case err != nil:
		j.state, j.errMsg, j.finished = StateFailed, err.Error(), time.Now()
	case jr.End != nil:
		j.state, j.errMsg, j.finished = end.State, end.Error, time.Unix(0, end.FinishedUnixNS)
		if end.StartedUnixNS != 0 {
			j.started = time.Unix(0, end.StartedUnixNS)
		}
		if j.state == StateDone {
			res.Elapsed = time.Duration(end.ElapsedNS)
			j.result = res
		}
		j.evals.Store(int64(res.Evaluations))
		if bl := obs.Float(res.Best.Loss); res.Evaluations > 0 {
			j.best.Store(&bl)
		}
	default:
		j.state = StatePending
		s.enqueueLocked(j, Event{Type: "submitted", Msg: "reloaded from journal"})
	}
	return nil
}
