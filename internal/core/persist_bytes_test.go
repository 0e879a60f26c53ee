package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"simcal/internal/obs"
)

// encodeResultDoc is what WriteJSON wrote before it wrote by hand: a
// json.Encoder over the resultDoc, the reference its bytes are held to.
func encodeResultDoc(r *Result, withHistory bool) ([]byte, error) {
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
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(doc)
	return buf.Bytes(), err
}

// randomName draws a name from pieces that exercise every escape: HTML
// characters, quotes, backslashes, control bytes, DEL, multi-byte runes,
// U+2028/U+2029 and invalid UTF-8.
func randomName(rng *rand.Rand) string {
	pieces := []string{"x", "alpha", "_7", "<", ">", "&", `"`, `\`, "\n", "\t", "\r", "\b", "\f",
		"\x00", "\x1f", "\x7f", "é", "日本", " ", " ", "\xff", "\xe2\x80", "\U0001F600", " ", "/"}
	n := 1 + rng.Intn(4)
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, pieces[rng.Intn(len(pieces))]...)
	}
	return string(b)
}

// randomFloat draws from every form a float takes: zero and negative
// zero, exponent form below 1e-6 and from 1e21 on, the boundaries
// themselves, subnormals, and arbitrary bit patterns.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return []float64{0, math.Copysign(0, -1), 1e-6, 1e-7, 1e21, 1e20, 5e-324, math.MaxFloat64, -1e-7}[rng.Intn(9)]
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	case 2:
		return float64(rng.Intn(1000))
	default:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
				return f
			}
		}
	}
}

func randomSample(rng *rand.Rand) Sample {
	s := Sample{Loss: randomFloat(rng), Elapsed: time.Duration(rng.Int63n(int64(time.Hour)))}
	switch rng.Intn(6) {
	case 0:
		s.Loss = math.Inf(1) // a failed evaluation
	case 1:
		s.Loss = math.Inf(-1)
	case 2:
		s.Loss = math.NaN()
	}
	if rng.Intn(10) > 0 {
		s.Point = make(Point)
		for i := rng.Intn(12); i > 0; i-- {
			s.Point[randomName(rng)] = randomFloat(rng)
		}
	}
	return s
}

// TestWriteJSONMatchesEncodingJSON holds WriteJSON to a json.Encoder's
// bytes over randomized results — with and without history, an empty
// and a nil point, ±Inf and NaN losses, exponent-form floats and names
// that need escaping — and to its refusal of a non-finite point value.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		r := &Result{
			Algorithm:   randomName(rng),
			Evaluations: rng.Intn(100000),
			Elapsed:     time.Duration(rng.Int63()),
			Best:        randomSample(rng),
		}
		for j := rng.Intn(6); j > 0; j-- {
			r.History = append(r.History, randomSample(rng))
		}
		withHistory := rng.Intn(4) > 0
		if i%50 == 0 && len(r.Best.Point) > 0 {
			for k := range r.Best.Point {
				r.Best.Point[k] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[i%3]
				break
			}
		}
		want, wantErr := encodeResultDoc(r, withHistory)
		var got bytes.Buffer
		err := r.WriteJSON(&got, withHistory)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("result %d: error %v, encoding/json's %v", i, err, wantErr)
		}
		if wantErr != nil {
			if got.Len() != 0 {
				t.Fatalf("result %d: a refused document wrote %q", i, got.Bytes())
			}
			continue
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("result %d differs from encoding/json:\n got %s\nwant %s", i, got.Bytes(), want)
		}
	}
}

// TestWriteJSONAllocations: a result document costs its buffer's growth
// and a slice of sorted keys, not allocations per sample (encoding/json
// made 7 032 for this result).
func TestWriteJSONAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := &Result{Algorithm: "RAND", Evaluations: 300, Best: Sample{Point: Point{"x": 1}}}
	for i := 0; i < 300; i++ {
		p := make(Point)
		for j := 0; j < 10; j++ {
			p[string(rune('a'+j))+"_param"] = rng.Float64()
		}
		r.History = append(r.History, Sample{Point: p, Loss: rng.Float64(), Elapsed: time.Duration(i) * time.Millisecond})
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		buf.Reset()
		_ = r.WriteJSON(&buf, true)
	}); allocs > 32 {
		t.Errorf("a 300-sample, 10-parameter result costs %.0f allocations, want at most 32", allocs)
	}
}

// countingWriter counts the Write calls made on it.
type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// TestWriteJSONWritesOnce: WriteJSON encodes the whole document before
// its one Write, and a document it refuses (a NaN point value) writes
// nothing — what lets service.handleResult hand it the response and
// still answer 500 on a refusal.
func TestWriteJSONWritesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := &Result{Algorithm: "RAND", Evaluations: 50, Best: randomSample(rng)}
	for i := 0; i < 50; i++ {
		r.History = append(r.History, randomSample(rng))
	}
	for _, withHistory := range []bool{false, true} {
		var w countingWriter
		if err := r.WriteJSON(&w, withHistory); err != nil || w.writes != 1 {
			t.Errorf("withHistory=%v: %d writes, err %v; want 1 write, no error", withHistory, w.writes, err)
		}
	}
	r.History[25].Point["nan"] = math.NaN()
	var w countingWriter
	if err := r.WriteJSON(&w, true); err == nil || w.writes != 0 {
		t.Errorf("a NaN point value: %d writes, err %v; want an error and no write", w.writes, err)
	}
}
