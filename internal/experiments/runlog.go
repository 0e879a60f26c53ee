package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"simcal/internal/core"
)

// runLogKind tags the header line of a run-log file.
const runLogKind = "simcal-run-log"

// RunLog is an append-only JSONL checkpoint of completed experiment
// cells, kept in a core.Journal. The header line carries a
// caller-supplied meta string (the experiment configuration
// fingerprint); every further line records one finished cell as
// {"cell": "<scope>/<index>", "value": …}.
//
// Each Store appends a complete line and fsyncs before returning, and
// OpenRunLog truncates a torn trailing line (the footprint of a kill
// mid-write), so the log is always resumable after a crash. A RunLog is
// safe for concurrent use.
type RunLog struct {
	mu   sync.Mutex
	path string
	j    *core.Journal
	done map[string]json.RawMessage
}

type runLogHeader struct {
	Kind string `json:"kind"`
	Meta string `json:"meta"`
}

type runLogCell struct {
	Cell  string          `json:"cell"`
	Value json.RawMessage `json:"value"`
}

// OpenRunLog opens (or creates) the run log at path. meta fingerprints
// the experiment configuration; reopening a log whose header is not
// this meta's fails, because cells computed under different options
// must never be served as resume data. A torn trailing line is
// truncated away; any other corruption is an error.
func OpenRunLog(path, meta string) (*RunLog, error) {
	l := &RunLog{path: path, done: make(map[string]json.RawMessage)}
	hdr, _ := json.Marshal(runLogHeader{Kind: runLogKind, Meta: meta})
	checkHeader := func(line []byte) error {
		if !bytes.Equal(line, hdr) {
			return fmt.Errorf("header %s, want %s — delete it or point -checkpoint elsewhere", line, hdr)
		}
		return nil
	}
	record := func(line []byte) error {
		var cell runLogCell
		if err := json.Unmarshal(line, &cell); err != nil || cell.Cell == "" {
			return fmt.Errorf("not a cell entry: %s", line)
		}
		l.done[cell.Cell] = append(json.RawMessage(nil), cell.Value...)
		return nil
	}
	j, err := core.OpenJournal(path, hdr, checkHeader, record)
	if err != nil {
		return nil, fmt.Errorf("experiments: run log: %w", err)
	}
	l.j = j
	return l, nil
}

// Lookup decodes the recorded result of cell (scope, i) into out and
// reports whether it was found. A recorded value that no longer decodes
// into out's type counts as a miss (the cell is recomputed).
func (l *RunLog) Lookup(scope string, i int, out any) bool {
	l.mu.Lock()
	raw, ok := l.done[cellKey(scope, i)]
	l.mu.Unlock()
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// Store appends the result of cell (scope, i) and fsyncs. Storing a
// cell twice keeps the latest value.
func (l *RunLog) Store(scope string, i int, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line, err := json.Marshal(runLogCell{Cell: cellKey(scope, i), Value: raw})
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.j == nil {
		return fmt.Errorf("experiments: run log %s is closed", l.path)
	}
	l.j.Append(line)
	if err := l.j.Sync(); err != nil {
		return err
	}
	l.done[cellKey(scope, i)] = raw
	return nil
}

// Len reports how many cells the log holds.
func (l *RunLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.done)
}

// Close closes the underlying file. Lookup keeps working on the
// in-memory index; Store fails.
func (l *RunLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.j == nil {
		return nil
	}
	err := l.j.Close()
	l.j = nil
	return err
}

func cellKey(scope string, i int) string { return fmt.Sprintf("%s/%d", scope, i) }
