package obs

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// FuzzReadTrace feeds arbitrary bytes to the trace decoder. Traces come
// off disk — possibly truncated mid-line by a killed run — so the
// contract is errors, never panics, and an accepted trace is one record
// per non-blank line, in order.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(func() time.Time { return time.Unix(1700000000, 0) })
	tr.EmitManifest(Manifest{Algorithm: "RAND", Space: []string{"x"}, Seed: 1, Version: "fuzz"})
	tr.Emit(EventEvalCompleted, Fields{"loss": 2.5, "elapsed_s": 0.001})
	tr.Emit(EventEvalCompleted, Fields{"loss": math.Inf(1), "elapsed_s": 0.002})
	tr.Emit(EventEvalCompleted, Fields{"loss": math.NaN(), "elapsed_s": 0.003})
	tr.Emit(EventPanicRecovered, Fields{"error": "boom"})
	if err := tr.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn mid-line
	f.Add([]byte(`{"name":"eval_completed","fields":{"loss":"-Inf","elapsed_s":1}}` + "\n"))
	f.Add([]byte(`{"name":"eval_completed","fields":{}}` + "\n"))
	f.Add([]byte(`{"name":"eval_completed","fields":{"loss":[1,2]}}` + "\n"))
	f.Add([]byte("\n\nnot json\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		lines := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 { // the scanner drops a CR before LF
				lines++
			}
		}
		if len(recs) != lines {
			t.Fatalf("decoded %d records from %d non-blank lines", len(recs), lines)
		}
	})
}
