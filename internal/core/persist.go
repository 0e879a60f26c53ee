package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

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
// evaluation). The document is written by hand in one Write, byte for
// byte what a json.Encoder writes for resultDoc: members in declaration
// order, point keys sorted, strings HTML-escaped, losses in obs.Float's
// form, a trailing newline — and, as there, a non-finite point value or
// elapsed time is an error with nothing written. Like encoding/json's,
// the buffer is pooled.
func (r *Result) WriteJSON(out io.Writer, withHistory bool) error {
	w := resultWriters.Get().(*resultWriter)
	defer func() {
		clear(w.keys[:cap(w.keys)]) // the pool holds no point's names
		w.b, w.keys, w.err = w.b[:0], w.keys[:0], nil
		resultWriters.Put(w)
	}()
	w.b = append(w.b, `{"kind":`...)
	w.b = appendJSONString(w.b, resultDocKind)
	w.b = append(w.b, `,"algorithm":`...)
	w.b = appendJSONString(w.b, r.Algorithm)
	w.b = append(w.b, `,"evaluations":`...)
	w.b = strconv.AppendInt(w.b, int64(r.Evaluations), 10)
	w.b = append(w.b, `,"elapsedSeconds":`...)
	w.float(r.Elapsed.Seconds())
	w.b = append(w.b, `,"best":`...)
	w.sample(&r.Best)
	if withHistory && len(r.History) > 0 {
		w.b = append(w.b, `,"history":[`...)
		for i := range r.History {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.sample(&r.History[i])
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, "}\n"...)
	if w.err != nil {
		return w.err
	}
	_, err := out.Write(w.b)
	return err
}

// resultWriter accumulates a result document and its first error.
type resultWriter struct {
	b    []byte
	keys []string // a point's sorted keys, reused from sample to sample
	err  error
}

var resultWriters = sync.Pool{New: func() any { return new(resultWriter) }}

// sample writes one sampleDoc.
func (w *resultWriter) sample(s *Sample) {
	w.b = append(w.b, `{"point":`...)
	if s.Point == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.keys = w.keys[:0]
		for k := range s.Point {
			w.keys = append(w.keys, k)
		}
		slices.Sort(w.keys)
		w.b = append(w.b, '{')
		for i, k := range w.keys {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = append(appendJSONString(w.b, k), ':')
			w.float(s.Point[k])
		}
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, `,"loss":`...)
	w.b = obs.Float(s.Loss).AppendJSON(w.b)
	w.b = append(w.b, `,"elapsedSeconds":`...)
	w.float(s.Elapsed.Seconds())
	w.b = append(w.b, '}')
}

// float writes a float64 as encoding/json does, which refuses a
// non-finite one.
func (w *resultWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	w.b = obs.Float(f).AppendJSON(w.b)
}

// appendJSONString appends s as a JSON string the way a json.Encoder
// (HTML escaping on) writes it: '"' and '\\' backslash-escaped, the
// control characters as \b \f \n \r \t or \u00XX, '<', '>' and '&' as
// \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
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
