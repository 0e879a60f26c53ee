package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"simcal/internal/obs"
)

// The on-disk calibration-result format: enough to resume analysis
// (convergence curves, calibrated parameter values, budget accounting)
// without re-running the calibration.

type resultDoc struct {
	Kind        string      `json:"kind"` // "simcal-calibration-result"
	Algorithm   string      `json:"algorithm"`
	Evaluations int         `json:"evaluations"`
	ElapsedSec  float64     `json:"elapsedSeconds"`
	Best        sampleDoc   `json:"best"`
	History     []sampleDoc `json:"history,omitempty"`
}

type sampleDoc struct {
	Point      Point     `json:"point"`
	Loss       obs.Float `json:"loss"` // +Inf is how a failed evaluation is recorded
	ElapsedSec float64   `json:"elapsedSeconds"`
}

const resultDocKind = "simcal-calibration-result"

// WriteJSON serializes the result. When withHistory is false only the
// best sample is stored (history can be large: one entry per loss
// evaluation).
func (r *Result) WriteJSON(out io.Writer, withHistory bool) error {
	doc := resultDoc{
		Kind:        resultDocKind,
		Algorithm:   r.Algorithm,
		Evaluations: r.Evaluations,
		ElapsedSec:  r.Elapsed.Seconds(),
		Best:        sampleDoc{Point: r.Best.Point, Loss: obs.Float(r.Best.Loss), ElapsedSec: r.Best.Elapsed.Seconds()},
	}
	if withHistory {
		for _, s := range r.History {
			doc.History = append(doc.History, sampleDoc{Point: s.Point, Loss: obs.Float(s.Loss), ElapsedSec: s.Elapsed.Seconds()})
		}
	}
	return json.NewEncoder(out).Encode(doc)
}

// ReadResult parses a result previously written with WriteJSON. Unit
// coordinates are not persisted; use the space to re-encode points when
// needed.
func ReadResult(in io.Reader) (*Result, error) {
	var doc resultDoc
	if err := json.NewDecoder(in).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decoding calibration result: %w", err)
	}
	if doc.Kind != resultDocKind {
		return nil, fmt.Errorf("core: unexpected document kind %q", doc.Kind)
	}
	if len(doc.Best.Point) == 0 {
		return nil, fmt.Errorf("core: result without a best point")
	}
	r := &Result{
		Algorithm:   doc.Algorithm,
		Evaluations: doc.Evaluations,
		Elapsed:     time.Duration(doc.ElapsedSec * float64(time.Second)),
		Best: Sample{
			Point:   doc.Best.Point,
			Loss:    float64(doc.Best.Loss),
			Elapsed: time.Duration(doc.Best.ElapsedSec * float64(time.Second)),
		},
	}
	for _, s := range doc.History {
		r.History = append(r.History, Sample{
			Point:   s.Point,
			Loss:    float64(s.Loss),
			Elapsed: time.Duration(s.ElapsedSec * float64(time.Second)),
		})
	}
	return r, nil
}
