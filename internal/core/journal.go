package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

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

// Journal is an append-only file of lines: a header line that says
// what the file records, then one line per record — a calibration's
// evaluations (Calibrator.Checkpoint) or an experiment's finished cells
// (experiments.RunLog). Append buffers; Sync writes the buffer with one
// write(2) and fsyncs, so a kill can only tear the last line, which
// OpenJournal truncates. A Journal is not safe for concurrent use.
type Journal struct {
	f   *os.File
	buf []byte
}

// OpenJournal opens the journal at path for appending, creating it
// with the header line when it does not exist (atomically: never an
// empty file). An existing journal's first line goes to checkHeader and
// every later line, in order, to record. A line record rejects is
// corruption unless it is the last line: that, like an unterminated
// last line, is what a kill mid-write leaves, and is truncated away. An
// existing file that cannot be read or holds corruption is refused and
// left as it was.
func OpenJournal(path string, header []byte, checkHeader, record func(line []byte) error) (*Journal, error) {
	data, err := os.ReadFile(path)
	good := 0
	switch {
	case errors.Is(err, os.ErrNotExist):
		err = createJournal(path, header)
	case err == nil:
		if good, err = scanJournal(data, checkHeader, record); err != nil {
			err = refusedJournalError{fmt.Errorf("core: journal %s: %w", path, err)}
		}
	default:
		err = refusedJournalError{fmt.Errorf("core: reading journal: %w", err)}
	}
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err == nil && good < len(data) {
		if err = f.Truncate(int64(good)); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
}

// createJournal atomically replaces path with a journal of one header.
func createJournal(path string, header []byte) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(header[:len(header):len(header)], '\n'))
		return err
	})
}

// refusedJournalError is OpenJournal's error for an existing file it
// cannot take as the journal expected: one it cannot read, or one that
// holds something else. A failure to create or append to a journal is
// another error.
type refusedJournalError struct{ error }

func (e refusedJournalError) Unwrap() error { return e.error }

// scanJournal splits journal bytes into lines, hands the header line to
// checkHeader and the rest to record, and returns the offset just past
// the last intact line (see OpenJournal for what the last line may be).
// ErrJournalEnded is never taken for a torn line: it refuses the file.
func scanJournal(data []byte, checkHeader, record func(line []byte) error) (good int, err error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return 0, errors.New("missing header line")
	}
	if err := checkHeader(data[:nl]); err != nil {
		return 0, err
	}
	good = nl + 1
	for k := 2; good < len(data); k++ {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			break // unterminated: torn
		}
		if err := record(data[good : good+nl]); err != nil {
			if good+nl+1 == len(data) && !errors.Is(err, ErrJournalEnded) {
				break // the last line: torn
			}
			return 0, fmt.Errorf("line %d: %w", k, err)
		}
		good += nl + 1
	}
	return good, nil
}

// Append buffers one line; line must not contain a newline. Nothing
// reaches the file before Sync.
func (j *Journal) Append(line []byte) {
	j.buf = append(append(j.buf, line...), '\n')
}

// Sync writes the buffered lines with one write(2) and fsyncs the file.
// The buffer is emptied either way: after a failed write the file's tail
// is unknown, and a retry could duplicate lines.
func (j *Journal) Sync() error {
	if len(j.buf) == 0 {
		return nil
	}
	_, err := j.f.Write(j.buf)
	j.buf = j.buf[:0]
	if err != nil {
		return err
	}
	return j.f.Sync()
}

// Close syncs what is buffered and closes the file.
func (j *Journal) Close() error {
	err := j.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}
