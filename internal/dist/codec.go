package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The frame payload codec. A payload is a type byte, then the members
// of that type in a fixed order:
//
//	hello:     name, capacity
//	lease:     id, index, spec, point
//	result:    id, index, loss, err, class, start_unix_ns, dur_ns, telemetry?
//	heartbeat: ping?, telemetry?
//	bye:       nothing
//	telemetry: sent_unix_ns, echo_ping_unix_ns, echo_recv_unix_ns
//
// Unsigned integers (ids, indexes, lengths, counts) are uvarints and
// signed ones zig-zag varints; a float is the 8 little-endian bytes of
// math.Float64bits; a string or the spec is a length, then its bytes; a
// member marked ? is a presence byte (0 or 1), then the member if 1; a
// map is a count, then its entries in strictly increasing key order.
// Every frame therefore has exactly one encoding, and the decoder
// accepts nothing else.

// frameTypes lists the frame types by their type byte.
var frameTypes = [...]string{TypeHello, TypeLease, TypeResult, TypeHeartbeat, TypeBye}

// appendFrame appends f's payload to dst. It does not validate f.
func appendFrame(dst []byte, f *Frame) []byte {
	dst = append(dst, byte(slices.Index(frameTypes[:], f.Type)))
	switch f.Type {
	case TypeHello:
		dst = appendStr(dst, f.Hello.Name)
		dst = binary.AppendVarint(dst, int64(f.Hello.Capacity))
	case TypeLease:
		l := f.Lease
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, l.ID), l.Index)
		dst = append(binary.AppendUvarint(dst, uint64(len(l.Spec))), l.Spec...)
		dst = appendPoint(dst, l.Point)
	case TypeResult:
		r := f.Result
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, r.ID), r.Index)
		dst = appendStr(appendStr(appendFloat(dst, r.Loss), r.Err), r.Class)
		dst = binary.AppendVarint(binary.AppendVarint(dst, r.StartUnixNS), r.DurNS)
		dst = appendTelemetry(dst, f.Telemetry)
	case TypeHeartbeat:
		dst = appendPresence(dst, f.Heartbeat != nil)
		if f.Heartbeat != nil {
			dst = binary.AppendVarint(dst, f.Heartbeat.PingUnixNS)
		}
		dst = appendTelemetry(dst, f.Telemetry)
	}
	return dst
}

func appendPresence(dst []byte, present bool) []byte {
	if present {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendFloat(dst []byte, v WireFloat) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(v)))
}

func appendTelemetry(dst []byte, t *TelemetryMsg) []byte {
	dst = appendPresence(dst, t != nil)
	if t == nil {
		return dst
	}
	dst = binary.AppendVarint(dst, t.SentUnixNS)
	dst = binary.AppendVarint(dst, t.EchoPingUnixNS)
	return binary.AppendVarint(dst, t.EchoRecvUnixNS)
}

// appendPoint appends the point's entry count, then its entries in
// increasing key order.
func appendPoint(dst []byte, m map[string]WireFloat) []byte {
	var arr [64]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendFloat(appendStr(dst, k), m[k])
	}
	return dst
}

// maxInterned bounds a connection's table of interned names.
const maxInterned = 1024

// decoder reads frame payloads. The zero value works; a frameConn keeps
// one per connection, so that point keys are interned
// in its bounded table rather than allocated per frame, and a lease
// spec equal to the previous lease's shares its bytes. No decoded value
// aliases the payload.
//
// Its reads share one error: the first failure is kept, the unread
// bytes are dropped, and every later read returns a zero value.
type decoder struct {
	p     []byte            // the payload's unread bytes
	err   error             // the first failure
	names map[string]string // interned names; nil interns nothing
	spec  []byte            // the last lease spec decoded

	// A frame its reader is done with is handed back (recycle): the next
	// frame is decoded into it, the next result into its ResultMsg, and
	// the next telemetry passenger into its TelemetryMsg.
	spare       *Frame
	spareResult *ResultMsg
	spareTm     *TelemetryMsg

	// leases holds lease frames handed back by the goroutines that ran
	// them (recycleLease); the next lease is decoded into one, its
	// LeaseMsg and its cleared point map. nil recycles none.
	leases chan *Frame
}

// leaseSpares is how many handed-back lease frames a connection keeps:
// enough for a worker's runners finishing together; a frame past it is
// left to the garbage collector.
const leaseSpares = 8

// recycleLease hands back a lease frame this decoder returned, once
// nothing holds any part of it. Unlike recycle it may be called from any
// goroutine, and it never blocks.
func (d *decoder) recycleLease(f *Frame) {
	select {
	case d.leases <- f:
	default:
	}
}

// recycle hands back a frame this decoder returned, once nothing holds
// any part of it. Only the goroutine that decodes may call it.
func (d *decoder) recycle(f *Frame) {
	if f.Result != nil {
		d.spareResult = f.Result
	}
	if f.Telemetry != nil {
		d.spareTm = f.Telemetry
	}
	*f = Frame{}
	d.spare = f
}

// decode parses one payload into a validated frame.
func (d *decoder) decode(p []byte) (*Frame, error) {
	d.p, d.err = p, nil
	f := d.frame()
	if len(d.p) > 0 {
		d.fail("%d trailing bytes", len(d.p))
	}
	err := d.err
	d.p, d.err = nil, nil
	if err != nil {
		return nil, fmt.Errorf("dist: decoding frame payload: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.p = nil
}

func (d *decoder) frame() *Frame {
	t := d.byte()
	if d.err != nil {
		return nil
	}
	if int(t) >= len(frameTypes) {
		d.fail("unknown frame type byte %d", t)
		return nil
	}
	typ := frameTypes[t]
	var f *Frame
	if typ == TypeLease {
		// Taken now, not as Recv began: a runner hands its frame back
		// while the reader waits for the next one.
		select {
		case f = <-d.leases:
		default:
		}
	}
	if f == nil {
		f = d.spare
		if f == nil {
			f = new(Frame)
		}
		d.spare = nil
	}
	f.Type = typ
	switch f.Type {
	case TypeHello:
		f.Hello = &HelloMsg{Name: d.text(), Capacity: int(d.varint())}
	case TypeLease:
		m := f.Lease // a handed-back lease frame's
		if m == nil {
			m = &LeaseMsg{Point: make(map[string]WireFloat)}
		}
		pt := m.Point
		clear(pt)
		*m = LeaseMsg{ID: d.uvarint(), Index: d.uvarint()}
		if spec := d.str(); !bytes.Equal(spec, d.spec) {
			d.spec = bytes.Clone(spec)
		}
		m.Spec = d.spec
		m.Point = d.point(pt)
		f.Lease = m
	case TypeResult:
		f.Result = d.spareResult
		if f.Result == nil {
			f.Result = new(ResultMsg)
		}
		d.spareResult = nil
		*f.Result = ResultMsg{
			ID: d.uvarint(), Index: d.uvarint(), Loss: d.float(), Err: d.text(),
			Class:       constant(d.str(), "deterministic", "transient"),
			StartUnixNS: d.varint(), DurNS: d.varint(),
		}
		f.Telemetry = d.telemetry()
	case TypeHeartbeat:
		if d.present() {
			f.Heartbeat = &HeartbeatMsg{PingUnixNS: d.varint()}
		}
		f.Telemetry = d.telemetry()
	}
	return f
}

// constant returns s as the entry of known it equals, so that a known
// value costs no string, or else as a new string.
func constant(s []byte, known ...string) string {
	for _, k := range known {
		if string(s) == k {
			return k
		}
	}
	return string(s)
}

// telemetry reads an optional passenger, into the spare if there is
// one.
func (d *decoder) telemetry() *TelemetryMsg {
	if !d.present() {
		return nil
	}
	t := d.spareTm
	if t == nil {
		t = new(TelemetryMsg)
	}
	d.spareTm = nil
	*t = TelemetryMsg{SentUnixNS: d.varint(), EchoPingUnixNS: d.varint(), EchoRecvUnixNS: d.varint()}
	return t
}

// point reads a point's entries into m — a new map if m is nil and
// there are entries. Keys must strictly increase.
func (d *decoder) point(m map[string]WireFloat) map[string]WireFloat {
	n := d.size("count")
	if n > 0 && m == nil {
		m = make(map[string]WireFloat)
	}
	var prev string
	for i := 0; i < n && d.err == nil; i++ {
		k := d.name()
		if i > 0 && k <= prev {
			d.fail("key %v out of order or repeated", k)
		}
		prev = k
		m[k] = d.float()
	}
	return m
}

func (d *decoder) byte() byte {
	if len(d.p) == 0 {
		d.fail("payload truncated")
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

func (d *decoder) present() bool {
	b := d.byte()
	if b > 1 {
		d.fail("presence byte %d", b)
	}
	return b == 1
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	switch {
	case n == 0:
		d.fail("payload truncated")
	case n < 0:
		d.fail("varint overflows 64 bits")
	case n > 1 && d.p[n-1] == 0:
		d.fail("non-shortest varint")
	default:
		d.p = d.p[n:]
		return v
	}
	return 0
}

// varint reads a zig-zag varint.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) float() WireFloat {
	if len(d.p) < 8 {
		d.fail("payload truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.p))
	d.p = d.p[8:]
	return WireFloat(v)
}

// size reads a length or a count. Each byte or entry it counts takes at
// least one byte, so it cannot exceed the bytes left.
func (d *decoder) size(what string) int {
	n := d.uvarint()
	if n > uint64(len(d.p)) {
		d.fail("%s %d exceeds the %d bytes left", what, n, len(d.p))
		return 0
	}
	return int(n)
}

// str reads a string's bytes, which alias the payload.
func (d *decoder) str() []byte {
	n := d.size("length")
	s := d.p[:n]
	d.p = d.p[n:]
	return s
}

// text reads a string into a new string.
func (d *decoder) text() string { return string(d.str()) }

// name reads a string, from the connection's table when it is there or
// fits.
func (d *decoder) name() string {
	key := d.str()
	if s, ok := d.names[string(key)]; ok {
		return s
	}
	s := string(key)
	if d.names != nil && len(d.names) < maxInterned {
		d.names[s] = s
	}
	return s
}
