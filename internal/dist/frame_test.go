package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"

	"simcal/internal/obs"
)

// testTelemetry is a telemetry passenger exercising every member, with
// a non-finite gauge.
func testTelemetry() *TelemetryMsg {
	return &TelemetryMsg{
		SentUnixNS:     1000,
		EchoPingUnixNS: 900,
		EchoRecvUnixNS: 950,
		Counters:       map[string]int64{"worker.evals_ok": 3},
		Gauges:         map[string]WireFloat{"worker.inflight_leases": 2, "weird": WireFloat(math.NaN())},
		Hists: map[string]obs.HistDump{
			"worker.eval_ns": {Count: 3, Sum: 300, Min: 50, Max: 150, Buckets: map[int]int64{6: 1, 7: 2}},
		},
	}
}

// testFrames is one valid frame of every type — result and heartbeat
// both with and without telemetry aboard — with non-finite floats where
// the protocol must carry them.
func testFrames() []*Frame {
	return []*Frame{
		{Type: TypeHello, Hello: &HelloMsg{Name: "w1", Capacity: 4}},
		{Type: TypeLease, Lease: &LeaseMsg{
			ID: 7, Index: 3,
			Spec:  json.RawMessage(`{"case":"wf"}`),
			Point: map[string]WireFloat{"x": 0.1234567890123456, "y": WireFloat(math.Inf(1))},
		}},
		{Type: TypeResult, Result: &ResultMsg{ID: 7, Index: 3, Loss: 42.5}},
		{Type: TypeResult, Result: &ResultMsg{ID: 8, Index: 4, Loss: WireFloat(math.Inf(1)), Err: "boom", Class: "transient"}},
		{Type: TypeResult, Result: &ResultMsg{ID: 9, Index: 5, Loss: 1.5, StartUnixNS: 1700000000000000123, DurNS: 2500000}, Telemetry: testTelemetry()},
		{Type: TypeHeartbeat},
		{Type: TypeHeartbeat, Heartbeat: &HeartbeatMsg{PingUnixNS: 123456789}},
		{Type: TypeHeartbeat, Telemetry: testTelemetry()},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range testFrames() {
		buf, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %s: %v", f.Type, err)
		}
		got, err := DecodeFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("decode %s: %v", f.Type, err)
		}
		if got.Type != f.Type {
			t.Fatalf("round-trip type = %q, want %q", got.Type, f.Type)
		}
		switch f.Type {
		case TypeHello:
			if *got.Hello != *f.Hello {
				t.Errorf("hello round-trip = %+v, want %+v", got.Hello, f.Hello)
			}
		case TypeLease:
			if got.Lease.ID != f.Lease.ID || got.Lease.Index != f.Lease.Index {
				t.Errorf("lease round-trip = %+v, want %+v", got.Lease, f.Lease)
			}
			for k, v := range f.Lease.Point {
				g := got.Lease.Point[k]
				if float64(g) != float64(v) && !(math.IsNaN(float64(g)) && math.IsNaN(float64(v))) {
					t.Errorf("lease point %s = %v, want %v", k, g, v)
				}
			}
		case TypeResult:
			if got.Result.ID != f.Result.ID || got.Result.Err != f.Result.Err || got.Result.Class != f.Result.Class {
				t.Errorf("result round-trip = %+v, want %+v", got.Result, f.Result)
			}
			if float64(got.Result.Loss) != float64(f.Result.Loss) {
				t.Errorf("result loss = %v, want %v", got.Result.Loss, f.Result.Loss)
			}
			if got.Result.StartUnixNS != f.Result.StartUnixNS || got.Result.DurNS != f.Result.DurNS {
				t.Errorf("result timing round-trip = %+v, want %+v", got.Result, f.Result)
			}
		case TypeHeartbeat:
			if f.Heartbeat != nil && got.Heartbeat.PingUnixNS != f.Heartbeat.PingUnixNS {
				t.Errorf("heartbeat round-trip = %+v, want %+v", got.Heartbeat, f.Heartbeat)
			}
		}
		if (got.Telemetry != nil) != (f.Telemetry != nil) {
			t.Fatalf("%s frame: telemetry aboard = %v, want %v", f.Type, got.Telemetry != nil, f.Telemetry != nil)
		}
		if want := f.Telemetry; want != nil {
			tm := got.Telemetry
			if tm.SentUnixNS != want.SentUnixNS || tm.EchoPingUnixNS != want.EchoPingUnixNS || tm.EchoRecvUnixNS != want.EchoRecvUnixNS {
				t.Errorf("telemetry stamps round-trip = %+v, want %+v", tm, want)
			}
			if tm.Counters["worker.evals_ok"] != 3 {
				t.Errorf("telemetry counters = %v", tm.Counters)
			}
			if !math.IsNaN(float64(tm.Gauges["weird"])) {
				t.Errorf("telemetry NaN gauge = %v", tm.Gauges["weird"])
			}
			h := tm.Hists["worker.eval_ns"]
			if h.Count != 3 || h.Buckets[7] != 2 {
				t.Errorf("telemetry hist round-trip = %+v", h)
			}
		}
	}
}

// TestWireFloatBitwise checks every float64 crosses the wire bitwise —
// the property the distributed determinism guarantee rests on.
func TestWireFloatBitwise(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.1, 1.0 / 3.0, math.Pi, 1e-300, 1e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Nextafter(1, 2),
	}
	for _, v := range vals {
		b, err := json.Marshal(WireFloat(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got WireFloat
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if math.IsNaN(v) {
			if !math.IsNaN(float64(got)) {
				t.Errorf("NaN round-trip = %v", got)
			}
			continue
		}
		if math.Float64bits(float64(got)) != math.Float64bits(v) {
			t.Errorf("%v round-trip = %v (bits differ)", v, got)
		}
	}
	var g WireFloat
	if err := json.Unmarshal([]byte(`"+Inf"`), &g); err != nil || !math.IsInf(float64(g), 1) {
		t.Errorf(`"+Inf" alias: %v, %v`, g, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &g); err == nil {
		t.Error("invalid sentinel accepted")
	}
}

func TestDecodeFrameRejectsMalformed(t *testing.T) {
	valid, err := EncodeFrame(&Frame{Type: TypeHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	header := func(version byte, n uint32) []byte {
		b := make([]byte, frameHeaderLen)
		b[0] = version
		binary.BigEndian.PutUint32(b[1:5], n)
		return b
	}
	// wrap frames a raw payload with a correct header (length + CRC).
	wrap := func(payload string) []byte {
		b := header(ProtocolVersion, uint32(len(payload)))
		binary.BigEndian.PutUint32(b[5:9], crc32.ChecksumIEEE([]byte(payload)))
		return append(b, payload...)
	}
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)-1] ^= 0xA5 // flip a payload byte, keep the header
	cases := []struct {
		name string
		in   []byte
		want string // substring of the error, or "" for any error
	}{
		{"empty", nil, "EOF"},
		{"truncated header", valid[:3], "frame header"},
		{"truncated payload", valid[:len(valid)-1], "frame payload"},
		{"bad version", append(header(9, 2), '{', '}'), "protocol version"},
		{"zero length", header(ProtocolVersion, 0), "zero-length"},
		{"oversize length", header(ProtocolVersion, MaxFramePayload+1), "exceeds"},
		{"garbage json", wrap("xyz"), "decoding"},
		{"corrupted payload", corrupted, "checksum"},
		{"bad crc", append(header(ProtocolVersion, 2), '{', '}'), "checksum"},
		{"lease attempt", mustFramePayload(t, `{"type":"lease","lease":{"id":1,"point":{},"attempt":1}}`), "unknown field"},
		{"result attempt", mustFramePayload(t, `{"type":"result","result":{"id":1,"loss":0,"attempt":1}}`), "unknown field"},
		{"unknown type", mustFramePayload(t, `{"type":"gossip"}`), "unknown frame type"},
		{"unknown field", mustFramePayload(t, `{"type":"heartbeat","extra":1}`), ""},
		{"payload mismatch", mustFramePayload(t, `{"type":"hello"}`), "hello"},
		{"extra payload", mustFramePayload(t, `{"type":"heartbeat","hello":{"name":"x"}}`), "payloads"},
		{"lease without point", mustFramePayload(t, `{"type":"lease","lease":{"id":1}}`), "point"},
		{"lease deadline", mustFramePayload(t, `{"type":"lease","lease":{"id":1,"point":{},"timeout_ms":5}}`), "unknown field"},
		{"bad result class", mustFramePayload(t, `{"type":"result","result":{"id":1,"loss":0,"err":"x","class":"weird"}}`), "error class"},
		{"classified non-error", mustFramePayload(t, `{"type":"result","result":{"id":1,"loss":0,"class":"transient"}}`), "absent error"},
		{"bad sentinel", mustFramePayload(t, `{"type":"result","result":{"id":1,"loss":"huge"}}`), "sentinel"},
		{"version 4 header", append(header(4, 2), '{', '}'), "protocol version 4"},
		{"telemetry frame type", mustFramePayload(t, `{"type":"telemetry","telemetry":{"sent_unix_ns":1}}`), "unknown frame type"},
		{"telemetry on a hello", mustFramePayload(t, `{"type":"hello","hello":{"name":"x"},"telemetry":{"sent_unix_ns":1}}`), "telemetry on a hello"},
		{"telemetry on a lease", mustFramePayload(t, `{"type":"lease","lease":{"id":1,"point":{}},"telemetry":{"sent_unix_ns":1}}`), "telemetry on a lease"},
		{"telemetry events member", mustFramePayload(t, `{"type":"heartbeat","telemetry":{"sent_unix_ns":1,"events":[]}}`), "decoding"},
		{"heartbeat extra payload", mustFramePayload(t, `{"type":"heartbeat","heartbeat":{"ping_unix_ns":1},"result":{"id":1,"loss":0}}`), "payloads"},
	}
	for _, tc := range cases {
		_, err := DecodeFrame(bytes.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: decoded successfully, want error", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// mustFramePayload wraps a raw JSON payload in a valid frame header
// (length prefix and payload CRC).
func mustFramePayload(t *testing.T, payload string) []byte {
	t.Helper()
	return mustFramePayloadFuzz(payload)
}

func TestDecodeFrameCleanEOFAtBoundary(t *testing.T) {
	// An orderly close between frames must surface as a bare io.EOF so
	// workers can tell coordinator shutdown from a torn frame.
	f1, err := EncodeFrame(&Frame{Type: TypeHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(f1)
	if _, err := DecodeFrame(r); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(r); err != io.EOF {
		t.Fatalf("EOF at frame boundary = %v, want io.EOF", err)
	}
}

func TestEncodeFrameRejectsOversizePayload(t *testing.T) {
	big := &Frame{Type: TypeResult, Result: &ResultMsg{ID: 1, Err: strings.Repeat("x", MaxFramePayload), Class: "transient"}}
	if _, err := EncodeFrame(big); err == nil {
		t.Fatal("oversize frame encoded successfully")
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the decoder: it must never
// panic, never allocate beyond MaxFramePayload for one frame, and any
// frame that decodes must re-encode.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range testFrames() {
		buf, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{ProtocolVersion})
	f.Add([]byte{ProtocolVersion, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{ProtocolVersion, 0xff, 0xff, 0xff, 0xff, 0xde, 0xad, 0xbe, 0xef})
	// Chaos-shaped seeds: truncated mid-payload, corrupted payload
	// bytes (CRC intact vs stale), and a corrupted length field.
	for _, fr := range testFrames() {
		buf, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[:frameHeaderLen+1])
		f.Add(buf[:len(buf)/2])
		mut := append([]byte(nil), buf...)
		mut[len(mut)-1] ^= 0xA5
		f.Add(mut)
		mut2 := append([]byte(nil), buf...)
		mut2[3] ^= 0x01
		f.Add(mut2)
	}
	f.Add(mustFramePayloadFuzz(`{"type":"heartbeat"}`))
	f.Add(mustFramePayloadFuzz(`{"type":"lease","lease":{"id":1,"point":{"x":"NaN"}}}`))
	f.Add(mustFramePayloadFuzz(`{"type":"heartbeat","telemetry":{"sent_unix_ns":1,"hists":{"h":{"count":1,"sum":2,"min":2,"max":2,"buckets":{"2":1}}}}}`))
	f.Add(mustFramePayloadFuzz(`{"type":"result","result":{"id":1,"index":0,"loss":"Inf","start_unix_ns":5,"dur_ns":7},"telemetry":{"sent_unix_ns":9,"counters":{"c":1}}}`))
	f.Add(mustFramePayloadFuzz(`{"type":"result","result":{"id":1,"index":0,"loss":0.5}}`))
	// Rejected shapes: telemetry where it may not ride, and a frame
	// under the previous protocol version's header.
	f.Add(mustFramePayloadFuzz(`{"type":"hello","hello":{"name":"x"},"telemetry":{"sent_unix_ns":1}}`))
	f.Add(mustFramePayloadFuzz(`{"type":"lease","lease":{"id":1,"point":{}},"telemetry":{"sent_unix_ns":1}}`))
	v4 := mustFramePayloadFuzz(`{"type":"heartbeat"}`)
	v4[0] = 4
	f.Add(v4)
	f.Add(mustFramePayloadFuzz(`{"type":"heartbeat","heartbeat":{"ping_unix_ns":5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := fr.Validate(); err != nil {
			t.Fatalf("decoded frame fails validation: %v", err)
		}
		if _, err := EncodeFrame(fr); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
	})
}

func mustFramePayloadFuzz(payload string) []byte {
	b := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	b[0] = ProtocolVersion
	binary.BigEndian.PutUint32(b[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[5:9], crc32.ChecksumIEEE([]byte(payload)))
	return append(b, payload...)
}

// TestDecodeFrameChaosMutations runs the decoder over chaos-style
// mutations of every valid frame — truncations at each boundary and
// single-byte payload corruptions like the ones
// internal/dist/chaos injects. The decoder must error (or, for a
// truncated stream, report EOF/torn frame) and never panic; corrupted
// payloads must never decode as valid frames, which is what keeps
// in-flight corruption from perturbing a calibration.
func TestDecodeFrameChaosMutations(t *testing.T) {
	for _, fr := range testFrames() {
		buf, err := EncodeFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(buf); cut++ {
			if _, err := DecodeFrame(bytes.NewReader(buf[:cut])); err == nil {
				t.Fatalf("%s frame truncated at %d decoded successfully", fr.Type, cut)
			}
		}
		for pos := frameHeaderLen; pos < len(buf); pos++ {
			mut := append([]byte(nil), buf...)
			mut[pos] ^= 0xA5
			if _, err := DecodeFrame(bytes.NewReader(mut)); err == nil {
				t.Fatalf("%s frame corrupted at byte %d decoded successfully", fr.Type, pos)
			}
		}
	}
}
