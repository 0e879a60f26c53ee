package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"simcal/internal/obs"
)

// The frame payload codec. The wire format is the JSON that
// encoding/json writes for Frame under its struct tags; appendFrame
// writes exactly those bytes without reflection, and decoder reads them
// back in one pass over the payload. frame_test.go holds encoding/json
// as the oracle for both directions.

// appendFrame appends f's JSON payload to dst, byte for byte what
// encoding/json's Marshal returns for f: members in struct order with omitempty
// honored, map keys sorted as strings, floats in obs.AppendFloat's
// form, strings escaped HTML-safe, and a lease spec compacted (unless
// the lease says it already is). It does not validate f.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	dst = append(dst, '{')
	dst = appendString(member(dst, "type"), f.Type)
	if h := f.Hello; h != nil {
		dst = append(member(dst, "hello"), '{')
		if h.Name != "" {
			dst = appendString(member(dst, "name"), h.Name)
		}
		if h.Capacity != 0 {
			dst = strconv.AppendInt(member(dst, "capacity"), int64(h.Capacity), 10)
		}
		dst = append(dst, '}')
	}
	if l := f.Lease; l != nil {
		dst = append(member(dst, "lease"), '{')
		dst = strconv.AppendUint(member(dst, "id"), l.ID, 10)
		dst = strconv.AppendUint(member(dst, "index"), l.Index, 10)
		if len(l.Spec) != 0 {
			dst = member(dst, "spec")
			if l.specCompact {
				dst = append(dst, l.Spec...)
			} else {
				var err error
				if dst, err = appendCompact(dst, l.Spec); err != nil {
					return dst, fmt.Errorf("lease spec: %w", err)
				}
			}
		}
		dst = appendMap(member(dst, "point"), l.Point, appendWireFloat)
		dst = append(dst, '}')
	}
	if r := f.Result; r != nil {
		dst = append(member(dst, "result"), '{')
		dst = strconv.AppendUint(member(dst, "id"), r.ID, 10)
		dst = strconv.AppendUint(member(dst, "index"), r.Index, 10)
		dst = obs.AppendFloat(member(dst, "loss"), float64(r.Loss))
		if r.Err != "" {
			dst = appendString(member(dst, "err"), r.Err)
		}
		if r.Class != "" {
			dst = appendString(member(dst, "class"), r.Class)
		}
		if r.StartUnixNS != 0 {
			dst = strconv.AppendInt(member(dst, "start_unix_ns"), r.StartUnixNS, 10)
		}
		if r.DurNS != 0 {
			dst = strconv.AppendInt(member(dst, "dur_ns"), r.DurNS, 10)
		}
		dst = append(dst, '}')
	}
	if h := f.Heartbeat; h != nil {
		dst = append(member(dst, "heartbeat"), '{')
		if h.PingUnixNS != 0 {
			dst = strconv.AppendInt(member(dst, "ping_unix_ns"), h.PingUnixNS, 10)
		}
		dst = append(dst, '}')
	}
	if t := f.Telemetry; t != nil {
		dst = append(member(dst, "telemetry"), '{')
		dst = strconv.AppendInt(member(dst, "sent_unix_ns"), t.SentUnixNS, 10)
		if t.EchoPingUnixNS != 0 {
			dst = strconv.AppendInt(member(dst, "echo_ping_unix_ns"), t.EchoPingUnixNS, 10)
		}
		if t.EchoRecvUnixNS != 0 {
			dst = strconv.AppendInt(member(dst, "echo_recv_unix_ns"), t.EchoRecvUnixNS, 10)
		}
		if len(t.Counters) != 0 {
			dst = appendMap(member(dst, "counters"), t.Counters, appendInt64)
		}
		if len(t.Gauges) != 0 {
			dst = appendMap(member(dst, "gauges"), t.Gauges, appendWireFloat)
		}
		if len(t.Hists) != 0 {
			dst = appendMap(member(dst, "hists"), t.Hists, appendHistDump)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// member appends an object member's name and colon, after a comma
// unless it is the object's first member (dst ends in its '{': a value
// never does).
func member(dst []byte, name string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

func appendInt64(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

func appendWireFloat(dst []byte, v WireFloat) []byte { return obs.AppendFloat(dst, float64(v)) }

func appendHistDump(dst []byte, h obs.HistDump) []byte {
	dst = append(dst, '{')
	dst = strconv.AppendInt(member(dst, "count"), h.Count, 10)
	dst = strconv.AppendInt(member(dst, "sum"), h.Sum, 10)
	dst = strconv.AppendInt(member(dst, "min"), h.Min, 10)
	dst = strconv.AppendInt(member(dst, "max"), h.Max, 10)
	if len(h.Buckets) != 0 {
		// encoding/json sorts integer keys as the strings they become:
		// bucket "10" before bucket "6".
		var arr [64]int
		keys := arr[:0]
		for k := range h.Buckets {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b int) int {
			var x, y [20]byte
			return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
		})
		dst = append(member(dst, "buckets"), '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '"')
			dst = strconv.AppendInt(dst, int64(k), 10)
			dst = append(dst, '"', ':')
			dst = strconv.AppendInt(dst, h.Buckets[k], 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendMap appends m as a JSON object with its keys in sorted order,
// or null for a nil m.
func appendMap[V any](dst []byte, m map[string]V, value func([]byte, V) []byte) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	var arr [16]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(appendString(dst, k), ':')
		dst = value(dst, m[k])
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json
// escapes it: '"', '\\' and control bytes escaped, '<', '>', '&',
// U+2028 and U+2029 escaped for HTML safety, and each byte of invalid
// UTF-8 replaced by \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendCompact appends the JSON value src with insignificant
// whitespace removed and '<', '>', '&', U+2028 and U+2029 escaped — what
// encoding/json does to a json.RawMessage it marshals. Invalid JSON is
// an error.
func appendCompact(dst, src []byte) ([]byte, error) {
	d := decoder{p: src}
	if err := d.skip(0); err != nil {
		return dst, err
	}
	if d.ws(); d.i != len(src) {
		return dst, d.errAt("after the value")
	}
	inString, escaped := false, false
	start := 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inString:
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			case c == '<' || c == '>' || c == '&':
				dst = append(dst, src[start:i]...)
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
				start = i + 1
			case c == 0xE2 && i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8:
				dst = append(dst, src[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
				i += 2
				start = i + 1
			}
		case c == '"':
			inString = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			dst = append(dst, src[start:i]...)
			start = i + 1
		}
	}
	return append(dst, src[start:]...), nil
}

// maxDepth is encoding/json's nesting limit, which the decoder keeps so
// that it accepts no value the oracle rejects.
const maxDepth = 10000

// maxInterned bounds a connection's table of interned names.
const maxInterned = 1024

// decoder reads frame payloads. The zero value works; a frameConn keeps
// one per connection, so that point keys and metric names are interned
// in its bounded table rather than allocated per frame, and a lease
// spec equal to the previous lease's shares its bytes. No decoded value
// aliases the payload.
//
// It accepts a subset of what encoding/json accepts for Frame: member
// names must match exactly (not case-folded), a member or map key may
// not repeat, null is accepted only as a spec, bucket keys must be
// canonical integers, and nothing may follow the payload's object.
type decoder struct {
	p     []byte            // the payload being decoded
	i     int               // read position in p
	tmp   []byte            // the last unescaped string, reused
	names map[string]string // interned names; nil interns nothing
	spec  json.RawMessage   // the last lease spec decoded

	// spare is a telemetry passenger its reader is done with
	// (frameConn.recycle): the next one is decoded into it, its maps and
	// its histograms' bucket maps, the last kept cleared in buckets.
	spare   *TelemetryMsg
	buckets []map[int]int64
}

// decode parses one payload into a validated frame.
func (d *decoder) decode(p []byte) (*Frame, error) {
	d.p, d.i = p, 0
	f := new(Frame)
	err := d.frame(f)
	if err == nil {
		if d.ws(); d.i != len(d.p) {
			err = d.errAt("after the frame")
		}
	}
	d.p = nil
	if err != nil {
		return nil, fmt.Errorf("dist: decoding frame payload: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Member names per message, in encoder order.
var (
	frameFields     = []string{"type", "hello", "lease", "result", "heartbeat", "telemetry"}
	helloFields     = []string{"name", "capacity"}
	leaseFields     = []string{"id", "index", "spec", "point"}
	resultFields    = []string{"id", "index", "loss", "err", "class", "start_unix_ns", "dur_ns"}
	heartbeatFields = []string{"ping_unix_ns"}
	telemetryFields = []string{"sent_unix_ns", "echo_ping_unix_ns", "echo_recv_unix_ns", "counters", "gauges", "hists"}
	histFields      = []string{"count", "sum", "min", "max", "buckets"}
)

func (d *decoder) frame(f *Frame) error {
	return d.object(frameFields, func(name string) (err error) {
		switch name {
		case "type":
			f.Type, err = d.frameType()
		case "hello":
			f.Hello = new(HelloMsg)
			err = d.hello(f.Hello)
		case "lease":
			f.Lease = new(LeaseMsg)
			err = d.lease(f.Lease)
		case "result":
			f.Result = new(ResultMsg)
			err = d.result(f.Result)
		case "heartbeat":
			f.Heartbeat = new(HeartbeatMsg)
			err = d.object(heartbeatFields, func(string) (err error) {
				f.Heartbeat.PingUnixNS, err = d.int()
				return err
			})
		case "telemetry":
			f.Telemetry = d.passenger()
			err = d.telemetry(f.Telemetry)
		}
		return err
	})
}

// frameType reads the type tag.
func (d *decoder) frameType() (string, error) {
	s, err := d.str()
	return constant(s, TypeHello, TypeLease, TypeResult, TypeHeartbeat, TypeBye), err
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

func (d *decoder) hello(h *HelloMsg) error {
	return d.object(helloFields, func(name string) (err error) {
		switch name {
		case "name":
			h.Name, err = d.text()
		case "capacity":
			var n int64
			n, err = d.int()
			h.Capacity = int(n)
			if err == nil && int64(h.Capacity) != n {
				err = errors.New("capacity out of range")
			}
		}
		return err
	})
}

func (d *decoder) lease(l *LeaseMsg) error {
	return d.object(leaseFields, func(name string) (err error) {
		switch name {
		case "id":
			l.ID, err = d.uint()
		case "index":
			l.Index, err = d.uint()
		case "spec":
			var raw []byte
			if raw, err = d.raw(2); err == nil {
				if !bytes.Equal(raw, d.spec) {
					d.spec = bytes.Clone(raw)
				}
				l.Spec = d.spec
			}
		case "point":
			l.Point, err = decodeMap(d, nil, (*decoder).float)
		}
		return err
	})
}

func (d *decoder) result(r *ResultMsg) error {
	return d.object(resultFields, func(name string) (err error) {
		switch name {
		case "id":
			r.ID, err = d.uint()
		case "index":
			r.Index, err = d.uint()
		case "loss":
			r.Loss, err = d.float()
		case "err":
			r.Err, err = d.text()
		case "class":
			var s []byte
			s, err = d.str()
			r.Class = constant(s, "deterministic", "transient")
		case "start_unix_ns":
			r.StartUnixNS, err = d.int()
		case "dur_ns":
			r.DurNS, err = d.int()
		}
		return err
	})
}

// passenger returns the telemetry message to decode into: the spare,
// emptied, if there is one. A spare's maps stay allocated, so members
// absent from the frame decode as empty maps, not nil ones.
func (d *decoder) passenger() *TelemetryMsg {
	t := d.spare
	if t == nil {
		return new(TelemetryMsg)
	}
	d.spare = nil
	for _, h := range t.Hists {
		if h.Buckets != nil {
			clear(h.Buckets)
			d.buckets = append(d.buckets, h.Buckets)
		}
	}
	clear(t.Counters)
	clear(t.Gauges)
	clear(t.Hists)
	*t = TelemetryMsg{Counters: t.Counters, Gauges: t.Gauges, Hists: t.Hists}
	return t
}

func (d *decoder) telemetry(t *TelemetryMsg) error {
	return d.object(telemetryFields, func(name string) (err error) {
		switch name {
		case "sent_unix_ns":
			t.SentUnixNS, err = d.int()
		case "echo_ping_unix_ns":
			t.EchoPingUnixNS, err = d.int()
		case "echo_recv_unix_ns":
			t.EchoRecvUnixNS, err = d.int()
		case "counters":
			t.Counters, err = decodeMap(d, t.Counters, (*decoder).int)
		case "gauges":
			t.Gauges, err = decodeMap(d, t.Gauges, (*decoder).float)
		case "hists":
			t.Hists, err = decodeMap(d, t.Hists, (*decoder).histDump)
		}
		return err
	})
}

func (d *decoder) histDump() (h obs.HistDump, err error) {
	err = d.object(histFields, func(name string) (err error) {
		switch name {
		case "count":
			h.Count, err = d.int()
		case "sum":
			h.Sum, err = d.int()
		case "min":
			h.Min, err = d.int()
		case "max":
			h.Max, err = d.int()
		case "buckets":
			if n := len(d.buckets); n > 0 {
				h.Buckets, d.buckets = d.buckets[n-1], d.buckets[:n-1]
			} else {
				h.Buckets = make(map[int]int64)
			}
			err = d.entries(func(key []byte) error {
				k, err := parseInt(key)
				if err != nil || int64(int(k)) != k {
					return fmt.Errorf("bucket key %q is not an integer", key)
				}
				if _, dup := h.Buckets[int(k)]; dup {
					return fmt.Errorf("duplicate bucket %d", k)
				}
				h.Buckets[int(k)], err = d.int()
				return err
			})
		}
		return err
	})
	return h, err
}

// object reads an object whose members are fields, calling member with
// each member's name (the entry of fields, not a copy) positioned at
// its value. An unknown or repeated member is an error.
func (d *decoder) object(fields []string, member func(name string) error) error {
	var seen uint64
	return d.entries(func(key []byte) error {
		for i, f := range fields {
			if string(key) != f {
				continue
			}
			if seen&(1<<i) != 0 {
				return fmt.Errorf("duplicate field %q", f)
			}
			seen |= 1 << i
			if err := member(f); err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			return nil
		}
		return fmt.Errorf("unknown field %q", key)
	})
}

// decodeMap reads an object into m — a new map if m is nil — keyed by
// interned member names. An empty object is an empty map, as
// encoding/json makes it.
func decodeMap[V any](d *decoder, m map[string]V, value func(*decoder) (V, error)) (map[string]V, error) {
	if m == nil {
		m = make(map[string]V)
	}
	err := d.entries(func(key []byte) error {
		k := d.intern(key)
		if _, dup := m[k]; dup {
			return fmt.Errorf("duplicate key %q", k)
		}
		v, err := value(d)
		if err != nil {
			return fmt.Errorf("%q: %w", k, err)
		}
		m[k] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// entries reads an object, calling entry with each member name
// (valid until the next string is read) positioned at its value.
func (d *decoder) entries(entry func(key []byte) error) error {
	if d.ws(); d.peek() != '{' {
		return d.errAt("where an object should start")
	}
	d.i++
	for first := true; ; first = false {
		d.ws()
		switch c := d.peek(); {
		case c == '}' && first:
			d.i++
			return nil
		case first:
		case c == '}':
			d.i++
			return nil
		case c == ',':
			d.i++
			d.ws()
		default:
			return d.errAt("after an object member")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.ws(); d.peek() != ':' {
			return d.errAt("after an object key")
		}
		d.i++
		d.ws()
		if err := entry(key); err != nil {
			return err
		}
	}
}

// ws skips whitespace.
func (d *decoder) ws() {
	for d.i < len(d.p) {
		switch d.p[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek returns the byte at the read position, 0 at the end.
func (d *decoder) peek() byte {
	if d.i < len(d.p) {
		return d.p[d.i]
	}
	return 0
}

// errAt reports an unexpected byte (or end) at the read position.
func (d *decoder) errAt(context string) error {
	if d.i >= len(d.p) {
		return fmt.Errorf("unexpected end of JSON input %s", context)
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.p[d.i], d.i, context)
}

// intern returns key as a string, from the connection's table when it
// is there or fits.
func (d *decoder) intern(key []byte) string {
	if s, ok := d.names[string(key)]; ok {
		return s
	}
	s := string(key)
	if d.names != nil && len(d.names) < maxInterned {
		d.names[s] = s
	}
	return s
}

// text reads a string value into a new string.
func (d *decoder) text() (string, error) {
	s, err := d.str()
	return string(s), err
}

// str reads a string and returns its unescaped bytes, which alias the
// payload or the decoder's scratch buffer: they are valid until the
// next string is read.
func (d *decoder) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errAt("where a string should start")
	}
	d.i++
	start := d.i
	for d.i < len(d.p) {
		switch c := d.p[d.i]; {
		case c == '"':
			d.i++
			return d.p[start : d.i-1], nil
		case c == '\\':
			return d.unescape(start)
		case c < 0x20:
			return nil, d.errAt("in a string")
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.p[d.i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start)
			}
			d.i += size
		}
	}
	return nil, d.errAt("in a string")
}

// unescape finishes reading a string that needs rewriting, from its
// first byte at start, into d.tmp — escapes resolved and invalid UTF-8
// replaced by U+FFFD, exactly as encoding/json unquotes.
func (d *decoder) unescape(start int) ([]byte, error) {
	out := append(d.tmp[:0], d.p[start:d.i]...)
	defer func() { d.tmp = out[:0] }()
	for d.i < len(d.p) {
		c := d.p[d.i]
		switch {
		case c == '"':
			d.i++
			return out, nil
		case c < 0x20:
			return nil, d.errAt("in a string")
		case c == '\\':
			d.i++
			switch e := d.peek(); e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := d.hex4(d.i + 1)
				if !ok {
					return nil, d.errAt("in a \\u escape")
				}
				d.i += 4
				if utf16.IsSurrogate(r) {
					if r2, ok := d.hex4(d.i + 3); ok && d.p[d.i+1] == '\\' && d.p[d.i+2] == 'u' {
						if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
							r = pair
							d.i += 6
						} else {
							r = utf8.RuneError
						}
					} else {
						r = utf8.RuneError
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, d.errAt("in a string escape")
			}
			d.i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.p[d.i:])
			out = utf8.AppendRune(out, r) // RuneError for an invalid byte
			d.i += size
		}
	}
	return nil, d.errAt("in a string")
}

// hex4 parses the four hex digits at p[at:].
func (d *decoder) hex4(at int) (rune, bool) {
	if at+4 > len(d.p) {
		return 0, false
	}
	var r rune
	for _, c := range d.p[at : at+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, false
		}
		r = r*16 + rune(c)
	}
	return r, true
}

// number reads a number's bytes, checked against the JSON grammar.
func (d *decoder) number() ([]byte, error) {
	start := d.i
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.errAt("in a number")
	}
	if d.peek() == '.' {
		d.i++
		if !d.digits() {
			return nil, d.errAt("after a decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !d.digits() {
			return nil, d.errAt("in an exponent")
		}
	}
	return d.p[start:d.i], nil
}

// digits skips a run of decimal digits, reporting whether there was one.
func (d *decoder) digits() bool {
	start := d.i
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.i++
	}
	return d.i > start
}

// int reads an integer that fits an int64.
func (d *decoder) int() (int64, error) {
	b, err := d.number()
	if err != nil {
		return 0, err
	}
	return parseInt(b)
}

// uint reads a non-negative integer that fits a uint64.
func (d *decoder) uint() (uint64, error) {
	b, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("number %s is not a uint64", b)
	}
	return v, nil
}

// parseInt parses b as an int64 in canonical form: what
// strconv.AppendInt writes, so no sign but a leading '-' and no leading
// zeros.
func parseInt(b []byte) (int64, error) {
	v, err := strconv.ParseInt(string(b), 10, 64)
	var canon [20]byte
	if err != nil || !bytes.Equal(strconv.AppendInt(canon[:0], v, 10), b) {
		return 0, fmt.Errorf("number %s is not an int64", b)
	}
	return v, nil
}

// float reads a WireFloat: a number or a quoted sentinel, parsed by obs.
func (d *decoder) float() (WireFloat, error) {
	start := d.i
	var err error
	if d.peek() == '"' {
		_, err = d.str()
	} else {
		_, err = d.number()
	}
	if err != nil {
		return 0, err
	}
	var v WireFloat
	err = v.UnmarshalJSON(d.p[start:d.i])
	return v, err
}

// raw reads any JSON value, nested at most maxDepth containers deep
// counting the depth enclosing containers it sits in, and returns its
// bytes as they are.
func (d *decoder) raw(depth int) ([]byte, error) {
	start := d.i
	if err := d.skip(depth); err != nil {
		return nil, err
	}
	return d.p[start:d.i], nil
}

// skip reads past one JSON value, checking it.
func (d *decoder) skip(depth int) error {
	d.ws()
	switch c := d.peek(); c {
	case '{', '[':
		if depth++; depth > maxDepth {
			return errors.New("exceeded max depth")
		}
		if c == '{' {
			return d.entries(func([]byte) error { return d.skip(depth) })
		}
		d.i++
		if d.ws(); d.peek() == ']' {
			d.i++
			return nil
		}
		for {
			if err := d.skip(depth); err != nil {
				return err
			}
			switch d.ws(); d.peek() {
			case ',':
				d.i++
			case ']':
				d.i++
				return nil
			default:
				return d.errAt("after an array element")
			}
		}
	case '"':
		_, err := d.str()
		return err
	case 't', 'f', 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if bytes.HasPrefix(d.p[d.i:], []byte(lit)) {
				d.i += len(lit)
				return nil
			}
		}
		return d.errAt("in a literal")
	default:
		_, err := d.number()
		return err
	}
}
