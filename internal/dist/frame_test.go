package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
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
	// Shapes encoding/json reads and the encoder never writes:
	// whitespace between members, members out of encoder order, a
	// repeated member, a case-folded member name and an escaped key.
	f.Add(mustFramePayloadFuzz(" {\n\t\"type\" : \"result\" ,\r\"result\":{ \"id\" :1 , \"loss\": 2.5e-7 } } "))
	f.Add(mustFramePayloadFuzz(`{"lease":{"point":{"y":1,"x":"-Inf"},"spec":{ "b" : [1, 2] },"index":4,"id":3},"type":"lease"}`))
	f.Add(mustFramePayloadFuzz(`{"type":"heartbeat","type":"heartbeat"}`))
	f.Add(mustFramePayloadFuzz(`{"Type":"heartbeat"}`))
	f.Add(mustFramePayloadFuzz(`{"typ\u0065":"heartbeat","telemetry":{"sent_unix_ns":1,"counters":{"a\u003cb\u2028\ud83d\ude00":2}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, data)
		if len(data) > frameHeaderLen {
			// The same payload behind a correct header, so that mutated
			// payloads get past the checksum to the JSON decoder.
			checkDecoded(t, mustFramePayloadFuzz(string(data[frameHeaderLen:])))
		}
	})
}

// checkDecoded holds FuzzDecodeFrame's assertions about one input.
func checkDecoded(t *testing.T, data []byte) {
	fr, err := DecodeFrame(bytes.NewReader(data))
	if err != nil {
		return
	}
	if err := fr.Validate(); err != nil {
		t.Fatalf("decoded frame fails validation: %v", err)
	}
	b1, err := EncodeFrame(fr)
	if err != nil {
		t.Fatalf("decoded frame does not re-encode: %v", err)
	}
	// The decoder accepts a subset of what encoding/json accepts,
	// into the same frame, and re-encoding is a fixed point.
	var want Frame
	dec := json.NewDecoder(bytes.NewReader(data[frameHeaderLen:]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("encoding/json rejects a payload the decoder accepts: %v", err)
	}
	if !sameFrame(fr, &want) {
		t.Fatalf("decoded frame = %s, encoding/json decodes %s", frameString(fr), frameString(&want))
	}
	fr2, err := DecodeFrame(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("re-encoded frame does not decode: %v", err)
	}
	if b2, err := EncodeFrame(fr2); err != nil || !bytes.Equal(b1, b2) {
		t.Fatalf("re-encoding is not a fixed point: %q then %q (%v)", b1, b2, err)
	}
}

// sameFrame is reflect.DeepEqual for frames with floats compared by
// their bits, so that two NaNs decoded from one sentinel are equal.
func sameFrame(a, b *Frame) bool {
	ca, fa := floatless(a)
	cb, fb := floatless(b)
	return reflect.DeepEqual(ca, cb) && slices.Equal(fa, fb)
}

// floatless returns a copy of f with every float zeroed, and the bits
// of the floats it held in a fixed order.
func floatless(f *Frame) (Frame, []uint64) {
	c := *f
	var bits []uint64
	zero := func(m map[string]WireFloat) map[string]WireFloat {
		if m == nil {
			return nil
		}
		out := make(map[string]WireFloat, len(m))
		for _, k := range slices.Sorted(maps.Keys(m)) {
			bits = append(bits, math.Float64bits(float64(m[k])))
			out[k] = 0
		}
		return out
	}
	if f.Lease != nil {
		l := *f.Lease
		l.Point = zero(l.Point)
		c.Lease = &l
	}
	if f.Result != nil {
		r := *f.Result
		bits = append(bits, math.Float64bits(float64(r.Loss)))
		r.Loss = 0
		c.Result = &r
	}
	if f.Telemetry != nil {
		t := *f.Telemetry
		t.Gauges = zero(t.Gauges)
		c.Telemetry = &t
	}
	return c, bits
}

// frameString renders a frame for a failure message.
func frameString(f *Frame) string {
	b, err := json.Marshal(f)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// TestAppendFrameMatchesEncodingJSON is the encoder's oracle: for every
// test frame and a thousand generated ones, appendFrame writes exactly
// the bytes json.Marshal does, and EncodeFrame exactly those behind
// the header. Generated frames reach every rule that can change bytes:
// sorted keys (bucket "10" before "6"), the float forms around 1e-6
// and 1e21, zeros, subnormals and sentinels, HTML-safe escaping,
// control bytes, U+2028 and invalid UTF-8 in names, errors and
// classes, and a spec to compact.
func TestAppendFrameMatchesEncodingJSON(t *testing.T) {
	frames := testFrames()
	rng := rand.New(rand.NewPCG(34, 6))
	for i := 0; i < 1000; i++ {
		frames = append(frames, randomFrame(rng))
	}
	for i, f := range frames {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("frame %d: json.Marshal: %v", i, err)
		}
		got, err := appendFrame(nil, f)
		if err != nil {
			t.Fatalf("frame %d: appendFrame: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d:\nappendFrame  %s\njson.Marshal %s", i, got, want)
		}
		if f.Validate() != nil {
			continue // never sent: EncodeFrame refuses it
		}
		buf, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("frame %d: EncodeFrame: %v", i, err)
		}
		if !bytes.Equal(buf[frameHeaderLen:], want) || int(binary.BigEndian.Uint32(buf[1:5])) != len(want) {
			t.Fatalf("frame %d: EncodeFrame payload %s, want %s", i, buf[frameHeaderLen:], want)
		}
		back, err := DecodeFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("frame %d: %s does not decode: %v", i, want, err)
		}
		var oracle Frame
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Fatal(err)
		}
		if !sameFrame(back, &oracle) {
			t.Fatalf("frame %d: decoded %s, encoding/json decodes %s", i, frameString(back), frameString(&oracle))
		}
	}
}

// randomFrame returns a valid lease, result or heartbeat frame built
// from the awkward cases of randomFloat and randomName.
func randomFrame(rng *rand.Rand) *Frame {
	switch rng.IntN(4) {
	case 0:
		pt := make(map[string]WireFloat)
		for n := 1 + rng.IntN(20); len(pt) < n; {
			put(pt, randomName(rng), WireFloat(randomFloat(rng)))
		}
		specs := []string{`{"case":"wf"}`, " { \"case\" : \"mpi\",\n\t\"x\": [1, 2.5e-7, \"<a&b>\u2028\"] } ", `"s"`, ""}
		return &Frame{Type: TypeLease, Lease: &LeaseMsg{
			ID: rng.Uint64(), Index: rng.Uint64N(1 << 20),
			Spec: json.RawMessage(specs[rng.IntN(len(specs))]), Point: pt,
		}}
	case 1:
		r := &ResultMsg{ID: rng.Uint64(), Index: rng.Uint64N(1 << 20), Loss: WireFloat(randomFloat(rng))}
		if rng.IntN(2) == 0 {
			r.Err = randomName(rng)
			// A class outside the three is invalid (the test checks
			// its bytes only), but appendFrame must still escape it.
			r.Class = []string{"", "deterministic", "transient", randomName(rng)}[rng.IntN(4)]
		}
		if rng.IntN(2) == 0 {
			r.StartUnixNS, r.DurNS = rng.Int64(), rng.Int64N(1e9)-1
		}
		return &Frame{Type: TypeResult, Result: r, Telemetry: randomTelemetry(rng)}
	case 2:
		var hb *HeartbeatMsg
		if rng.IntN(2) == 0 {
			hb = &HeartbeatMsg{PingUnixNS: rng.Int64N(3) * rng.Int64()}
		}
		return &Frame{Type: TypeHeartbeat, Heartbeat: hb, Telemetry: randomTelemetry(rng)}
	default:
		return &Frame{Type: TypeHello, Hello: &HelloMsg{Name: randomName(rng), Capacity: rng.IntN(3) * rng.Int()}}
	}
}

func randomTelemetry(rng *rand.Rand) *TelemetryMsg {
	if rng.IntN(3) == 0 {
		return nil
	}
	t := &TelemetryMsg{SentUnixNS: rng.Int64(), EchoPingUnixNS: rng.Int64N(2) * rng.Int64(), EchoRecvUnixNS: rng.Int64N(2) * rng.Int64()}
	for i := rng.IntN(4); i > 0; i-- {
		if t.Counters == nil {
			t.Counters = make(map[string]int64)
		}
		put(t.Counters, randomName(rng), rng.Int64()-rng.Int64())
	}
	for i := rng.IntN(4); i > 0; i-- {
		if t.Gauges == nil {
			t.Gauges = make(map[string]WireFloat)
		}
		put(t.Gauges, randomName(rng), WireFloat(randomFloat(rng)))
	}
	for i := rng.IntN(3); i > 0; i-- {
		if t.Hists == nil {
			t.Hists = make(map[string]obs.HistDump)
		}
		h := obs.HistDump{Count: rng.Int64N(100), Sum: rng.Int64(), Min: rng.Int64N(50), Max: rng.Int64N(1 << 40)}
		for j := rng.IntN(6); j > 0; j-- {
			if h.Buckets == nil {
				h.Buckets = make(map[int]int64)
			}
			h.Buckets[rng.IntN(64)] = 1 + rng.Int64N(1000)
		}
		put(t.Hists, randomName(rng), h)
	}
	return t
}

// put adds k to m unless a key already there encodes the same: invalid
// UTF-8 is replaced on the way out, so two such keys can collide, and
// the decoder rejects a repeated key.
func put[V any](m map[string]V, k string, v V) {
	decoded := func(s string) string {
		b, _ := json.Marshal(s)
		var out string
		_ = json.Unmarshal(b, &out)
		return out
	}
	for old := range m {
		if decoded(old) == decoded(k) {
			return
		}
	}
	m[k] = v
}

// randomFloat draws ordinary values of every magnitude and the edge
// cases of the float form.
func randomFloat(rng *rand.Rand) float64 {
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789e-15,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	if rng.IntN(3) == 0 {
		return edges[rng.IntN(len(edges))]
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(60)-30))
}

// randomName draws a name from pieces the string escaping must get
// right, valid UTF-8 or not.
func randomName(rng *rand.Rand) string {
	pieces := []string{"x", "worker.eval_ns", `"`, `\`, "<", ">", "&", "\u2028", "\u2029", "\x00", "\x1f", "\n", "\t", "\b", "\f", "\x7f", "\xff", "\xe2\x80", "é", "😀", "\ufffd", "b", "a"}
	var b strings.Builder
	for n := 1 + rng.IntN(4); n > 0; n-- {
		b.WriteString(pieces[rng.IntN(len(pieces))])
	}
	return b.String()
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

// TestCodecSteadyStateAllocations pins what a connection's codec costs
// per frame once warm. Encoding into the connection's buffer allocates
// nothing. Decoding a lease allocates its frame, its LeaseMsg and its
// point map (two objects: the map and its slot group): the point keys
// are interned and the spec equals the previous lease's, so neither is
// copied. Decoding a result whose previous passenger was handed back
// allocates its frame and its ResultMsg: the telemetry is decoded into
// the recycled message, maps and bucket maps.
func TestCodecSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	lease := &Frame{Type: TypeLease, Lease: &LeaseMsg{ID: 7, Index: 3, Spec: json.RawMessage(`{"case": "wf"}`),
		Point: map[string]WireFloat{"x0": 0.5, "x1": -1e-7, "x2": WireFloat(math.Inf(1))}}}
	result := &Frame{Type: TypeResult, Result: &ResultMsg{ID: 7, Index: 3, Loss: 0.25, StartUnixNS: 5, DurNS: 9},
		Telemetry: testTelemetry()}
	var buf []byte
	dec := decoder{names: make(map[string]string)}
	for _, tc := range []struct {
		f    *Frame
		want float64
	}{{lease, 4}, {result, 2}} {
		roundTrip := func() {
			var err error
			if buf, err = appendWireFrame(buf[:0], tc.f); err != nil {
				t.Fatal(err)
			}
			got, err := dec.decode(buf[frameHeaderLen:])
			if err != nil {
				t.Fatal(err)
			}
			if got.Telemetry != nil {
				dec.spare = got.Telemetry
			}
		}
		roundTrip() // warm the buffer, the name table and the spare
		if allocs := testing.AllocsPerRun(100, roundTrip); allocs != tc.want {
			t.Errorf("a warm %s frame costs %.0f allocations, want %.0f", tc.f.Type, allocs, tc.want)
		}
	}
}
