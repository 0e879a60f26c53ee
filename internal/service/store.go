package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"simcal/internal/core"
)

// Durable job state, when Config.StateDir is set. Three files per job,
// all named by job ID so restarts can pair them back up:
//
//	<id>.job.json       the job record: request + lifecycle state
//	<id>.journal.jsonl  the calibration's evaluation journal (kept by core,
//	                    and kept after the job ends: its replay record)
//	<id>.result.json    the finished result (same format as simcal -out)
//
// Record and result are replaced atomically (write-tmp-then-rename);
// the journal is append-only, its torn last line truncated on reopen.
// On startup the server reloads every job record: terminal jobs become
// queryable again (results served from their files), and jobs recorded
// pending or running are re-queued — running just means the previous
// process died mid-run, and the journal carries what resume needs.

const jobRecordKind = "simcald-job"

// jobRecord is the on-disk journal entry for one job.
type jobRecord struct {
	Kind            string     `json:"kind"` // "simcald-job"
	ID              string     `json:"id"`
	Tenant          string     `json:"tenant"`
	State           State      `json:"state"`
	Request         JobRequest `json:"request"`
	Error           string     `json:"error,omitempty"`
	SubmittedUnixNS int64      `json:"submitted_unix_ns"`
	FinishedUnixNS  int64      `json:"finished_unix_ns,omitempty"`
}

func (s *Server) recordPath(id string) string { return filepath.Join(s.cfg.StateDir, id+".job.json") }
func (s *Server) journalPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+".journal.jsonl")
}
func (s *Server) resultPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+".result.json")
}

// persistRecord journals a job's current state. Best-effort: losing a
// journal write must not kill the job it describes (the same stance as
// core's calibration journal), so failures are swallowed — the job keeps
// running and the next transition retries.
//
// Callers journal after releasing the server lock, so two writes of one
// job can overlap — Submit's and a quick job's finalize, say. The job's
// journal lock spans snapshot and rename, so the write that lands last
// carries the latest state: a finished job is never journaled back to
// pending, which a restarted server would run again.
func (s *Server) persistRecord(j *Job) {
	if s.cfg.StateDir == "" {
		return
	}
	j.journal.Lock()
	defer j.journal.Unlock()
	s.mu.Lock()
	rec := jobRecord{
		Kind:            jobRecordKind,
		ID:              j.ID,
		Tenant:          j.Tenant,
		State:           j.state,
		Request:         j.Request,
		Error:           j.errMsg,
		SubmittedUnixNS: j.submitted.UnixNano(),
	}
	if !j.finished.IsZero() {
		rec.FinishedUnixNS = j.finished.UnixNano()
	}
	s.mu.Unlock()
	_ = core.WriteFileAtomic(s.recordPath(j.ID), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(rec)
	})
}

// persistResult stores a finished job's result in exactly the format
// cmd/simcal -out writes, history included — which is what lets the CI
// smoke test diff a service job's result bitwise against a serial run.
func (s *Server) persistResult(j *Job, res *core.Result) {
	if s.cfg.StateDir == "" || res == nil {
		return
	}
	_ = core.WriteFileAtomic(s.resultPath(j.ID), func(w io.Writer) error {
		return res.WriteJSON(w, true)
	})
}

// load replays the journal on startup: every *.job.json becomes a Job
// again. Terminal jobs are queryable (results served from disk);
// pending and running jobs are re-queued — a "running" record means
// the previous process died mid-run, and the job resumes from its
// evaluation journal. Called from NewServer before any dispatch.
func (s *Server) load() error {
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("service: state dir: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "*.job.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths) // job IDs are zero-padded, so lexical = submission order
	var recs []jobRecord
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("service: reading journal %s: %w", p, err)
		}
		var rec jobRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("service: corrupt journal %s: %w", p, err)
		}
		if rec.Kind != jobRecordKind || rec.ID == "" {
			return fmt.Errorf("service: %s is not a job record", p)
		}
		recs = append(recs, rec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		if err := s.loadJobLocked(rec); err != nil {
			return err
		}
	}
	return nil
}

// loadJobLocked reconstructs one job from its journal record. Caller
// holds mu.
func (s *Server) loadJobLocked(rec jobRecord) error {
	if _, dup := s.jobs[rec.ID]; dup {
		return fmt.Errorf("service: duplicate job record %s", rec.ID)
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:        rec.ID,
		Tenant:    rec.Tenant,
		Request:   rec.Request,
		state:     rec.State,
		submitted: time.Unix(0, rec.SubmittedUnixNS),
		errMsg:    rec.Error,
		ctx:       ctx,
		cancel:    cancel,
		eventCh:   make(chan struct{}),
	}
	if rec.FinishedUnixNS != 0 {
		j.finished = time.Unix(0, rec.FinishedUnixNS)
	}
	var n int
	if _, err := fmt.Sscanf(rec.ID, "j-%d", &n); err == nil && n >= s.nextID {
		s.nextID = n + 1
	}
	s.jobMetrics(j)
	switch {
	case rec.State.Terminal():
		if rec.State == StateDone {
			// Repopulate progress counters from the stored result so
			// status reads match the pre-restart server's.
			if f, err := os.Open(s.resultPath(j.ID)); err == nil {
				if res, rerr := core.ReadResult(f); rerr == nil {
					j.evals.Store(int64(res.Evaluations))
					j.bestBits.Store(math.Float64bits(res.Best.Loss))
					j.hasBest.Store(true)
				}
				f.Close()
			}
		}
	default:
		// Pending or running: re-resolve and re-queue. A spec or
		// algorithm the restarted binary no longer accepts fails the
		// job instead of the whole startup.
		space, err := s.cfg.Resolve(rec.Request.Spec)
		if err == nil {
			j.space = space
			j.alg, err = s.cfg.Algorithm(rec.Request.Algorithm)
		}
		if err != nil {
			j.state = StateFailed
			j.errMsg = err.Error()
			j.finished = time.Now()
			break
		}
		j.state = StatePending
		ts := s.tenantLocked(j.Tenant)
		ts.pending = append(ts.pending, j)
		ts.open++
		s.pending++
		s.gPending.Set(float64(s.pending))
		s.appendEventLocked(j, Event{Type: "submitted", Msg: "reloaded from journal"})
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	return nil
}
