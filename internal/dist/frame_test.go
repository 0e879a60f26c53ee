package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testTelemetry is a telemetry passenger: a clock-sync echo.
func testTelemetry() *TelemetryMsg {
	return &TelemetryMsg{SentUnixNS: 1000, EchoPingUnixNS: 900, EchoRecvUnixNS: 950}
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
		{Type: TypeBye},
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
			if *tm != *want {
				t.Errorf("telemetry round-trip = %+v, want %+v", tm, want)
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

// Type bytes, pinned here independently of the codec.
const (
	tHello byte = iota
	tLease
	tResult
	tHeartbeat
)

// payload hand-builds a frame payload from its parts: a byte as it is,
// an int as a uvarint, an int64 as a zig-zag varint, a float64 as its 8
// little-endian bytes, a string as its length and bytes, and a []byte
// as raw bytes.
func payload(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch v := p.(type) {
		case byte:
			b = append(b, v)
		case int:
			b = binary.AppendUvarint(b, uint64(v))
		case uint64: // a length past what an int holds on 32-bit
			b = binary.AppendUvarint(b, v)
		case int64:
			b = binary.AppendVarint(b, v)
		case float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		case string:
			b = append(binary.AppendUvarint(b, uint64(len(v))), v...)
		case []byte:
			b = append(b, v...)
		default:
			panic(fmt.Sprintf("payload part %T", p))
		}
	}
	return b
}

// Minimal valid payloads the malformed cases are cut from or added to.
var (
	helloPayload     = payload(tHello, "x", int64(0))
	leasePayload     = payload(tLease, 1, 0, "", 0)
	resultPayload    = payload(tResult, 1, 0, 0.0, "", "", int64(0), int64(0), byte(0))
	heartbeatPayload = payload(tHeartbeat, byte(0), byte(0))
	telemetryMembers = payload(int64(1), int64(0), int64(0))
)

func TestDecodeFrameRejectsMalformed(t *testing.T) {
	valid, err := EncodeFrame(&Frame{Type: TypeHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{helloPayload, leasePayload, resultPayload, heartbeatPayload,
		payload(tHeartbeat, byte(0), byte(1), telemetryMembers)} {
		if _, err := DecodeFrame(bytes.NewReader(wrapPayload(p))); err != nil {
			t.Fatalf("base payload %x: %v", p, err)
		}
	}
	header := func(version byte, n uint32) []byte {
		b := make([]byte, FrameHeaderLen)
		b[0] = version
		binary.BigEndian.PutUint32(b[1:5], n)
		return b
	}
	join := func(parts ...[]byte) []byte { return wrapPayload(bytes.Join(parts, nil)) }
	cut := func(p []byte, n int) []byte { return wrapPayload(p[:len(p)-n]) }
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
		{"garbage payload", wrapPayload([]byte("xyz")), "decoding"},
		{"corrupted payload", corrupted, "checksum"},
		{"bad crc", append(header(ProtocolVersion, 2), '{', '}'), "checksum"},
		{"version 4 header", append(header(4, 2), '{', '}'), "protocol version 4"},
		{"version 6 header", append(header(6, 3), heartbeatPayload...), "protocol version 6"},
		{"version 7 header", append(header(7, 3), heartbeatPayload...), "protocol version 7"},
		// What a member the layout has no place for becomes: bytes after
		// the frame's last member.
		{"lease attempt", join(leasePayload, payload(1)), "trailing bytes"},
		{"result attempt", join(resultPayload, payload(1)), "trailing bytes"},
		{"unknown field", join(heartbeatPayload, payload(1)), "trailing bytes"},
		{"extra payload", join(heartbeatPayload, helloPayload), "trailing bytes"},
		{"lease deadline", join(leasePayload, payload(5)), "trailing bytes"},
		{"telemetry on a hello", join(helloPayload, payload(byte(1)), telemetryMembers), "trailing bytes"},
		{"telemetry on a lease", join(leasePayload, payload(byte(1)), telemetryMembers), "trailing bytes"},
		{"telemetry events member", join(payload(tHeartbeat, byte(0), byte(1)), telemetryMembers, payload(0)), "trailing bytes"},
		// Protocol v7's metric maps after the echo.
		{"telemetry metric maps", join(payload(tResult, 1, 0, 0.0, "", "", int64(0), int64(0), byte(1)), telemetryMembers, payload(1, "c", int64(1), 0, 0)), "trailing bytes"},
		{"heartbeat extra payload", join(payload(tHeartbeat, byte(1), int64(1), byte(0)), resultPayload[1:]), "trailing bytes"},
		{"unknown type", wrapPayload(payload(byte(5))), "unknown frame type byte 5"},
		{"telemetry frame type", wrapPayload(payload(byte(0xff), telemetryMembers)), "unknown frame type byte 255"},
		{"payload mismatch", wrapPayload(payload(tHello)), "truncated"},
		{"lease without point", cut(leasePayload, 1), "truncated"},
		{"result without loss", cut(resultPayload, 11), "truncated"},
		{"bad result class", wrapPayload(payload(tResult, 1, 0, 0.0, "x", "weird", int64(0), int64(0), byte(0))), "error class"},
		{"classified non-error", wrapPayload(payload(tResult, 1, 0, 0.0, "", "transient", int64(0), int64(0), byte(0))), "absent error"},
		// What the layout refuses so that every frame has one encoding.
		{"non-shortest varint", wrapPayload(payload(tLease, []byte{0x81, 0x00}, 0, "", 0)), "non-shortest varint"},
		{"varint overflow", wrapPayload(payload(tLease, bytes.Repeat([]byte{0xff}, 10), []byte{0x01}, 0, "", 0)), "overflows"},
		{"presence byte 2", wrapPayload(payload(tHeartbeat, byte(2), byte(0))), "presence byte 2"},
		{"telemetry presence byte 2", wrapPayload(payload(tHeartbeat, byte(0), byte(2))), "presence byte 2"},
		{"repeated key", wrapPayload(payload(tLease, 1, 0, "", 2, "x", 1.0, "x", 2.0)), "out of order or repeated"},
		{"keys out of order", wrapPayload(payload(tLease, 1, 0, "", 2, "y", 1.0, "x", 2.0)), "out of order or repeated"},
		{"oversize count", wrapPayload(payload(tLease, 1, 0, "", 1000, "x", 1.0)), "count 1000 exceeds"},
		{"oversize length", wrapPayload(payload(tHello, 1000, "x", int64(0))), "length 1000 exceeds"},
		{"oversize spec length", wrapPayload(payload(tLease, 1, 0, uint64(1<<40), 0)), "length 1099511627776 exceeds"},
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
// panic, never allocate beyond MaxFramePayload for one frame, any frame
// that decodes must validate and re-encode, and it must re-encode to
// exactly the bytes it was decoded from — one encoding per frame.
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
		f.Add(buf[:FrameHeaderLen+1])
		f.Add(buf[:len(buf)/2])
		mut := append([]byte(nil), buf...)
		mut[len(mut)-1] ^= 0xA5
		f.Add(mut)
		mut2 := append([]byte(nil), buf...)
		mut2[3] ^= 0x01
		f.Add(mut2)
	}
	// Payloads of the JSON layout protocol v6 used: each must be
	// rejected, under either version byte.
	json := func(s string) []byte { return wrapPayload([]byte(s)) }
	f.Add(json(`{"type":"heartbeat"}`))
	f.Add(json(`{"type":"lease","lease":{"id":1,"point":{"x":"NaN"}}}`))
	f.Add(json(`{"type":"heartbeat","telemetry":{"sent_unix_ns":1,"hists":{"h":{"count":1,"sum":2,"min":2,"max":2,"buckets":{"2":1}}}}}`))
	f.Add(json(`{"type":"result","result":{"id":1,"index":0,"loss":"Inf","start_unix_ns":5,"dur_ns":7},"telemetry":{"sent_unix_ns":9,"counters":{"c":1}}}`))
	f.Add(json(`{"type":"result","result":{"id":1,"index":0,"loss":0.5}}`))
	f.Add(json(`{"type":"hello","hello":{"name":"x"},"telemetry":{"sent_unix_ns":1}}`))
	f.Add(json(`{"type":"lease","lease":{"id":1,"point":{}},"telemetry":{"sent_unix_ns":1}}`))
	v4 := json(`{"type":"heartbeat"}`)
	v4[0] = 4
	f.Add(v4)
	f.Add(json(`{"type":"heartbeat","heartbeat":{"ping_unix_ns":5}}`))
	f.Add(json(" {\n\t\"type\" : \"result\" ,\r\"result\":{ \"id\" :1 , \"loss\": 2.5e-7 } } "))
	f.Add(json(`{"lease":{"point":{"y":1,"x":"-Inf"},"spec":{ "b" : [1, 2] },"index":4,"id":3},"type":"lease"}`))
	f.Add(json(`{"type":"heartbeat","type":"heartbeat"}`))
	f.Add(json(`{"Type":"heartbeat"}`))
	f.Add(json(`{"typ\u0065":"heartbeat","telemetry":{"sent_unix_ns":1,"counters":{"a\u003cb\u2028\ud83d\ude00":2}}}`))
	// Binary seeds, one per rejection rule of the layout. The two after
	// the key-order seeds are v7 passengers, whose histogram maps now
	// follow the echo as trailing bytes.
	hist := payload(tHeartbeat, byte(0), byte(1), int64(1), int64(0), int64(0), 0, 0, 1, "h", int64(2), int64(2), int64(1), int64(1), 2)
	for _, p := range [][]byte{
		payload(byte(5)),                                                        // unknown type byte
		append(bytes.Clone(heartbeatPayload), 0),                                // trailing bytes
		payload(tLease, []byte{0x81, 0x00}, 0, "", 0),                           // non-shortest varint
		payload(tLease, bytes.Repeat([]byte{0xff}, 10), []byte{0x01}, 0, "", 0), // varint overflow
		payload(tHeartbeat, byte(2), byte(0)),                                   // presence byte 2
		payload(tLease, 1, 0, "", 2, "x", 1.0, "x", 2.0),                        // repeated key
		payload(tLease, 1, 0, "", 2, "y", 1.0, "x", 2.0),                        // keys out of order
		payload(hist, int64(6), int64(1), int64(6), int64(1)),                   // v7 metric maps
		payload(hist, int64(7), int64(1), int64(6), int64(1)),                   // v7 metric maps
		payload(tLease, 1, 0, "", 1000, "x", 1.0),                               // oversize count
		payload(tHello, 1000, "x", int64(0)),                                    // oversize length
		payload(tHello),                                                         // truncated
	} {
		f.Add(wrapPayload(p))
	}
	for _, version := range []byte{6, 7} {
		old := wrapPayload(heartbeatPayload)
		old[0] = version
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, data)
		if len(data) > FrameHeaderLen {
			// The same payload behind a correct header, so that mutated
			// payloads get past the checksum to the payload decoder.
			checkDecoded(t, wrapPayload(data[FrameHeaderLen:]))
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
	// An accepted frame is the one encoding of what it decodes to.
	if read := data[:FrameHeaderLen+binary.BigEndian.Uint32(data[1:5])]; !bytes.Equal(b1, read) {
		t.Fatalf("decoded %x, re-encoded %x", read, b1)
	}
	// Decoded again into frames handed back dirty — a lease frame with
	// other keys and another spec, a result frame with telemetry — it is
	// the same frame.
	var hdr [FrameHeaderLen]byte
	payload, err := readPayload(bytes.NewReader(data), &hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := decoder{names: make(map[string]string), leases: make(chan *Frame, 1)}
	for _, dirty := range testFrames() {
		switch dirty.Type {
		case TypeLease:
			dirty.Lease.Point["zz"] = 1 // a key no point in the seeds has
			again, err := d.decode(appendFrame(nil, dirty))
			if err != nil {
				t.Fatal(err)
			}
			d.recycleLease(again)
		case TypeResult:
			if dirty.Telemetry != nil {
				again, err := d.decode(appendFrame(nil, dirty))
				if err != nil {
					t.Fatal(err)
				}
				d.recycle(again)
			}
		}
	}
	again, err := d.decode(payload)
	if err != nil {
		t.Fatalf("decoded into a recycled frame: %v", err)
	}
	if !sameFrame(again, fr) {
		t.Fatalf("decoded into a recycled frame %+v, fresh %+v", again, fr)
	}
}

// sameFrame is reflect.DeepEqual for frames with floats compared by
// their bits, and with nil and empty maps and specs taken as equal.
func sameFrame(a, b *Frame) bool {
	ca, fa := floatless(a)
	cb, fb := floatless(b)
	return reflect.DeepEqual(ca, cb) && slices.Equal(fa, fb)
}

// floatless returns a copy of f with every float zeroed and every empty
// map or spec nil, and the bits of the floats it held in a fixed order.
func floatless(f *Frame) (Frame, []uint64) {
	c := *f
	var bits []uint64
	zero := func(m map[string]WireFloat) map[string]WireFloat {
		if len(m) == 0 {
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
		if len(l.Spec) == 0 {
			l.Spec = nil
		}
		c.Lease = &l
	}
	if f.Result != nil {
		r := *f.Result
		bits = append(bits, math.Float64bits(float64(r.Loss)))
		r.Loss = 0
		c.Result = &r
	}
	return c, bits
}

// TestFrameRoundTripGenerated holds the codec to one property over every
// test frame and a thousand generated ones: EncodeFrame then DecodeFrame
// returns the frame it was given, every float bit for bit (NaN payloads
// included). Generated frames reach every member: ids across the uvarint
// range, negative and zero integers, every float edge case, names and
// errors with quotes, control bytes and invalid UTF-8, specs empty or not
// JSON, and point keys to sort.
func TestFrameRoundTripGenerated(t *testing.T) {
	frames := testFrames()
	rng := rand.New(rand.NewPCG(34, 6))
	for i := 0; i < 1000; i++ {
		frames = append(frames, randomFrame(rng))
	}
	for i, f := range frames {
		buf, err := EncodeFrame(f)
		if f.Validate() != nil {
			if err == nil {
				t.Fatalf("frame %d: EncodeFrame accepted an invalid frame", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("frame %d: EncodeFrame: %v", i, err)
		}
		if int(binary.BigEndian.Uint32(buf[1:5])) != len(buf)-FrameHeaderLen {
			t.Fatalf("frame %d: header length %d for a %d-byte payload", i, binary.BigEndian.Uint32(buf[1:5]), len(buf)-FrameHeaderLen)
		}
		back, err := DecodeFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("frame %d: %x does not decode: %v", i, buf, err)
		}
		if !sameFrame(back, f) {
			t.Fatalf("frame %d: decoded %+v, encoded %+v", i, back, f)
		}
	}
}

// randomFrame returns a lease, result, heartbeat or hello frame built
// from the awkward cases of randomFloat and randomName; a result's class
// may be invalid.
func randomFrame(rng *rand.Rand) *Frame {
	switch rng.IntN(4) {
	case 0:
		pt := make(map[string]WireFloat)
		for n := 1 + rng.IntN(20); len(pt) < n; {
			pt[randomName(rng)] = WireFloat(randomFloat(rng))
		}
		specs := []string{`{"case":"wf"}`, " { \"case\" : \"mpi\",\n\t\"x\": [1, 2.5e-7, \"<a&b>\u2028\"] } ", `"s"`, "", "not json \xff"}
		return &Frame{Type: TypeLease, Lease: &LeaseMsg{
			ID: rng.Uint64(), Index: rng.Uint64N(1 << 20),
			Spec: []byte(specs[rng.IntN(len(specs))]), Point: pt,
		}}
	case 1:
		r := &ResultMsg{ID: rng.Uint64(), Index: rng.Uint64N(1 << 20), Loss: WireFloat(randomFloat(rng))}
		if rng.IntN(2) == 0 {
			r.Err = randomName(rng)
			// A class outside the three is invalid: EncodeFrame must
			// refuse it.
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
		return &Frame{Type: TypeHello, Hello: &HelloMsg{Name: randomName(rng), Capacity: (rng.IntN(3) - 1) * rng.Int()}}
	}
}

func randomTelemetry(rng *rand.Rand) *TelemetryMsg {
	if rng.IntN(3) == 0 {
		return nil
	}
	return &TelemetryMsg{SentUnixNS: rng.Int64() - rng.Int64(), EchoPingUnixNS: rng.Int64N(2) * rng.Int64(), EchoRecvUnixNS: rng.Int64N(2) * rng.Int64()}
}

// randomFloat draws ordinary values of every magnitude and the edge
// cases of float64, NaNs with several payloads among them.
func randomFloat(rng *rand.Rand) float64 {
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789e-15,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
	}
	if rng.IntN(3) == 0 {
		return edges[rng.IntN(len(edges))]
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(60)-30))
}

// randomName draws a name from pieces, valid UTF-8 or not, that a text
// format would have to escape.
func randomName(rng *rand.Rand) string {
	pieces := []string{"x", "worker.eval_ns", `"`, `\`, "<", ">", "&", "\u2028", "\u2029", "\x00", "\x1f", "\n", "\t", "\b", "\f", "\x7f", "\xff", "\xe2\x80", "é", "😀", "\ufffd", "b", "a"}
	var b strings.Builder
	for n := 1 + rng.IntN(4); n > 0; n-- {
		b.WriteString(pieces[rng.IntN(len(pieces))])
	}
	return b.String()
}

// wrapPayload puts a raw payload behind a valid frame header (length
// prefix and payload CRC).
func wrapPayload(p []byte) []byte {
	b := make([]byte, FrameHeaderLen, FrameHeaderLen+len(p))
	b[0] = ProtocolVersion
	binary.BigEndian.PutUint32(b[1:5], uint32(len(p)))
	binary.BigEndian.PutUint32(b[5:9], crc32.ChecksumIEEE(p))
	return append(b, p...)
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
		for pos := FrameHeaderLen; pos < len(buf); pos++ {
			mut := append([]byte(nil), buf...)
			mut[pos] ^= 0xA5
			if _, err := DecodeFrame(bytes.NewReader(mut)); err == nil {
				t.Fatalf("%s frame corrupted at byte %d decoded successfully", fr.Type, pos)
			}
		}
	}
}

// TestCodecSteadyStateAllocations pins what a connection's codec costs
// per frame once warm, with each decoded frame handed back. Encoding
// into the connection's buffer allocates nothing, and so does decoding.
// A lease is decoded into the lease frame handed back (recycleLease),
// its LeaseMsg and its cleared point map; the point keys are interned
// and the spec equals the previous lease's, so neither is copied. A
// result is decoded into the recycled frame (recycle), ResultMsg and
// telemetry message.
func TestCodecSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	lease := &Frame{Type: TypeLease, Lease: &LeaseMsg{ID: 7, Index: 3, Spec: json.RawMessage(`{"case": "wf"}`),
		Point: map[string]WireFloat{"x0": 0.5, "x1": -1e-7, "x2": WireFloat(math.Inf(1))}}}
	result := &Frame{Type: TypeResult, Result: &ResultMsg{ID: 7, Index: 3, Loss: 0.25, StartUnixNS: 5, DurNS: 9},
		Telemetry: testTelemetry()}
	var buf []byte
	dec := decoder{names: make(map[string]string), leases: make(chan *Frame, 1)}
	for _, tc := range []struct {
		f    *Frame
		want float64
	}{{lease, 0}, {result, 0}} {
		roundTrip := func() {
			var err error
			if buf, err = appendWireFrame(buf[:0], tc.f); err != nil {
				t.Fatal(err)
			}
			got, err := dec.decode(buf[FrameHeaderLen:])
			if err != nil {
				t.Fatal(err)
			}
			if got.Type == TypeLease {
				dec.recycleLease(got)
			} else {
				dec.recycle(got)
			}
		}
		roundTrip() // warm the buffer, the name table and the spares
		if allocs := testing.AllocsPerRun(100, roundTrip); allocs != tc.want {
			t.Errorf("a warm %s frame costs %.0f allocations, want %.0f", tc.f.Type, allocs, tc.want)
		}
	}
}

// TestDecoderRecyclesLeaseFrames: a lease decoded into a handed-back
// lease frame holds exactly its own point — no key of the previous,
// larger point is left — and a spec equal to the previous lease's is
// shared with it, while a changed one is a fresh copy that aliases
// neither the payload nor the old spec. A frame that is not handed back
// is not reused, and once the spares are full a handback is dropped
// without blocking.
func TestDecoderRecyclesLeaseFrames(t *testing.T) {
	d := decoder{names: make(map[string]string), leases: make(chan *Frame, 1)}
	decode := func(spec string, point map[string]WireFloat) *Frame {
		t.Helper()
		f, err := d.decode(appendFrame(nil, &Frame{Type: TypeLease, Lease: &LeaseMsg{ID: 1, Spec: []byte(spec), Point: point}}))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	first := decode(`{"a":1}`, map[string]WireFloat{"x": 1, "y": 2, "z": 3})
	firstMsg, firstSpec := first.Lease, first.Lease.Spec
	d.recycleLease(first)
	second := decode(`{"a":1}`, map[string]WireFloat{"y": 5})
	if second != first || second.Lease != firstMsg {
		t.Fatal("the handed-back lease frame was not reused")
	}
	if want := map[string]WireFloat{"y": 5}; !maps.Equal(second.Lease.Point, want) {
		t.Errorf("recycled point = %v, want %v", second.Lease.Point, want)
	}
	if &second.Lease.Spec[0] != &firstSpec[0] {
		t.Error("an unchanged spec was copied, not shared with the previous lease")
	}

	d.recycleLease(second)
	payload := appendFrame(nil, &Frame{Type: TypeLease, Lease: &LeaseMsg{ID: 2, Spec: []byte(`{"a":2}`), Point: map[string]WireFloat{"x": 1}}})
	third, err := d.decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if third != first || string(third.Lease.Spec) != `{"a":2}` || string(firstSpec) != `{"a":1}` {
		t.Fatalf("a changed spec decoded as %q over the old %q", third.Lease.Spec, firstSpec)
	}
	clear(payload)
	if string(third.Lease.Spec) != `{"a":2}` {
		t.Error("a changed spec aliases the payload")
	}

	fourth := decode(`{"a":2}`, map[string]WireFloat{"x": 1})
	if fourth == third {
		t.Error("a lease frame that was not handed back was reused")
	}
	d.recycleLease(third)
	d.recycleLease(fourth) // the one spare slot is taken: dropped
	if got := decode(`{"a":2}`, map[string]WireFloat{"x": 1}); got != third {
		t.Error("the spare lease frame was not the one handed back first")
	}
}
