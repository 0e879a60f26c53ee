// Package dist is the distributed evaluation plane: a coordinator that
// shards loss evaluations from core.Calibrator batches across remote
// workers, and the worker runtime that executes them. The two halves
// speak a length-prefixed JSON frame protocol (hello / lease / result /
// heartbeat) over any Transport — TCP for real deployments, an
// in-process loopback for hermetic tests — and are built so that a
// distributed calibration is bitwise identical to a serial one:
//
//   - the coordinator implements core.Simulator, so every evaluation
//     flows through the existing dispatch, cache, resilience, and
//     observability layers unchanged;
//   - results merge index-addressed (core.Problem.Evaluate already
//     records samples in proposal order), so worker count, arrival
//     order, and scheduling never reorder the trajectory;
//   - a lease held by a dead worker is re-queued and evaluated
//     elsewhere; deterministic simulators return the same loss, so a
//     mid-batch kill is invisible to the search;
//   - worker-reported failures cross the wire with their
//     resilience.Class, so the calibrator's retry/classification
//     machinery treats a remote failure exactly like a local one.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"simcal/internal/obs"
)

// ProtocolVersion is the wire protocol version carried as the first
// byte of every frame. A peer speaking a different version is rejected
// at the first frame, before any JSON is parsed. Version 2 added the
// heartbeat ping timestamp and the lease trace ID. Version 3 added the
// payload CRC to the header and the attempt counter to lease and result
// messages. Version 4 deleted the telemetry frame: a result carries its
// evaluation's worker-clock timing, and metric deltas ride result and
// worker heartbeat frames as an optional member.
const ProtocolVersion = 4

// MaxFramePayload bounds the JSON payload of one frame. The decoder
// rejects larger length prefixes before allocating, so a corrupt or
// hostile peer cannot make the receiver allocate unbounded memory.
const MaxFramePayload = 1 << 20

// FrameHeaderLen is the wire frame header size: the version byte, the
// 4-byte big-endian payload length, and the 4-byte big-endian IEEE
// CRC32 of the payload. The checksum is what keeps in-flight byte
// corruption from silently altering a lease or a loss: JSON tolerates
// many single-byte mutations (a flipped digit still parses), so
// without it a corrupted frame could decode cleanly and break the
// bitwise-determinism contract. With it, corruption is always a
// detected connection error — the lease is requeued and re-evaluated,
// never mis-evaluated.
const FrameHeaderLen = 9

// frameHeaderLen is the internal alias for FrameHeaderLen.
const frameHeaderLen = FrameHeaderLen

// Frame types.
const (
	// TypeHello opens a connection: the worker sends its name and
	// capacity, the coordinator replies with its own hello.
	TypeHello = "hello"
	// TypeLease assigns one evaluation (coordinator → worker).
	TypeLease = "lease"
	// TypeResult reports one finished evaluation (worker → coordinator).
	TypeResult = "result"
	// TypeHeartbeat is the keep-alive either side sends while idle.
	// Coordinator-sent heartbeats carry a ping timestamp the worker
	// echoes in the telemetry of its next frame, which is what the
	// clock-offset estimate is derived from.
	TypeHeartbeat = "heartbeat"
)

// WireFloat is the wire's name for obs.Float: losses and parameter
// values cross bitwise, non-finite ones as the string sentinels the
// tracer, checkpoints and result files use.
type WireFloat = obs.Float

// HelloMsg opens a connection in either direction. The worker's hello
// declares its evaluation capacity; the coordinator's reply confirms
// the session (its capacity is 0).
type HelloMsg struct {
	// Name identifies the peer in logs and trace events.
	Name string `json:"name,omitempty"`
	// Capacity is the number of evaluations the worker runs at once.
	Capacity int `json:"capacity,omitempty"`
}

// LeaseMsg assigns one loss evaluation to a worker. The coordinator
// keeps the lease open until a result for its ID arrives or the worker
// dies, in which case the lease is re-queued to another worker.
type LeaseMsg struct {
	// ID is the coordinator-unique lease identifier results answer to.
	ID uint64 `json:"id"`
	// Index is the evaluation's position in its evaluator's proposal
	// order (informational: merging is ID-addressed, and the calibration
	// core already records samples index-addressed per batch).
	Index uint64 `json:"index"`
	// Spec tells the worker which simulator to (re)build; workers cache
	// built simulators keyed by the canonical spec bytes.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Point is the parameter assignment to evaluate.
	Point map[string]WireFloat `json:"point"`
	// TimeoutMS is the evaluation deadline in milliseconds; 0 means no
	// deadline. An expired lease is answered with a transient failure.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Attempt numbers this dispatch of the lease, starting at 0.
	// Requeues after a worker death and redeliveries over a lossy
	// transport each bump it. Workers echo the latest attempt they saw
	// in the result, and deduplicate lease frames by ID — a redelivered
	// lease is never evaluated twice in one session.
	Attempt int `json:"attempt,omitempty"`
}

// ResultMsg reports one finished evaluation.
type ResultMsg struct {
	// ID echoes the lease ID.
	ID uint64 `json:"id"`
	// Index echoes the lease index.
	Index uint64 `json:"index"`
	// Loss is the evaluated loss (meaningful only when Err is empty).
	Loss WireFloat `json:"loss"`
	// Err is the failure message; empty means success.
	Err string `json:"err,omitempty"`
	// Class is the resilience classification of Err ("deterministic" or
	// "transient"), so the coordinator can reconstruct an equivalently
	// classified error for the calibrator's retry machinery. Aborted
	// evaluations never produce a result frame.
	Class string `json:"class,omitempty"`
	// Attempt echoes the latest lease attempt the worker saw for this
	// ID. The coordinator resolves a lease exactly once regardless (the
	// in-flight table is the idempotency authority); the echoed attempt
	// flags stale deliveries for observability.
	Attempt int `json:"attempt,omitempty"`
	// StartUnixNS and DurNS time the evaluation on the worker's clock:
	// when it started (simulator lookup included) and how long it ran.
	// The coordinator, which holds everything else about the lease,
	// turns them into the lease's dist_worker_eval trace event. A
	// redelivery answered from the worker's completed-result cache
	// carries the original timing.
	StartUnixNS int64 `json:"start_unix_ns,omitempty"`
	DurNS       int64 `json:"dur_ns,omitempty"`
}

// HeartbeatMsg is the optional heartbeat payload. The coordinator
// stamps its pings so workers can echo them back in their next frame's
// telemetry; worker-sent heartbeats have none.
type HeartbeatMsg struct {
	// PingUnixNS is the sender's wall clock (UnixNano) at send time.
	PingUnixNS int64 `json:"ping_unix_ns,omitempty"`
}

// TelemetryMsg is worker observability riding on a frame the worker
// sends anyway — a result, or a heartbeat while idle. Counters and
// histograms carry deltas since the previous frame that had telemetry
// (merging is additive on the coordinator); gauges carry absolute
// values. The echo fields implement the NTP-style clock-offset
// exchange: t1 = EchoPingUnixNS (coordinator send), t2 = EchoRecvUnixNS
// (worker receive), t3 = SentUnixNS (worker send), t4 = coordinator
// receive.
type TelemetryMsg struct {
	// SentUnixNS is the worker's wall clock at frame send time (t3).
	SentUnixNS int64 `json:"sent_unix_ns"`
	// EchoPingUnixNS echoes the most recent heartbeat ping (t1); 0 when
	// none arrived since the last echo.
	EchoPingUnixNS int64 `json:"echo_ping_unix_ns,omitempty"`
	// EchoRecvUnixNS is the worker clock when that ping arrived (t2).
	EchoRecvUnixNS int64 `json:"echo_recv_unix_ns,omitempty"`
	// Counters holds counter increments since the last telemetry.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds the absolute values of gauges that changed.
	Gauges map[string]WireFloat `json:"gauges,omitempty"`
	// Hists holds histogram bucket-count deltas since the last telemetry.
	Hists map[string]obs.HistDump `json:"hists,omitempty"`
}

// Frame is one protocol message: a type tag plus the payload matching
// it. Exactly the payload named by Type must be non-nil — except
// heartbeats, whose ping payload is optional. Telemetry is not a payload
// but an optional passenger of result and heartbeat frames.
type Frame struct {
	Type      string        `json:"type"`
	Hello     *HelloMsg     `json:"hello,omitempty"`
	Lease     *LeaseMsg     `json:"lease,omitempty"`
	Result    *ResultMsg    `json:"result,omitempty"`
	Heartbeat *HeartbeatMsg `json:"heartbeat,omitempty"`
	Telemetry *TelemetryMsg `json:"telemetry,omitempty"`
}

// Validate checks the type tag and that the payload shape matches it.
func (f *Frame) Validate() error {
	var want, got int
	if f.Hello != nil {
		got++
	}
	if f.Lease != nil {
		got++
	}
	if f.Result != nil {
		got++
	}
	if f.Heartbeat != nil {
		got++
	}
	switch f.Type {
	case TypeHello:
		if f.Hello == nil {
			return fmt.Errorf("dist: hello frame without hello payload")
		}
		want = 1
	case TypeLease:
		if f.Lease == nil {
			return fmt.Errorf("dist: lease frame without lease payload")
		}
		if f.Lease.Point == nil {
			return fmt.Errorf("dist: lease %d without a point", f.Lease.ID)
		}
		if f.Lease.TimeoutMS < 0 {
			return fmt.Errorf("dist: lease %d with negative timeout", f.Lease.ID)
		}
		if f.Lease.Attempt < 0 {
			return fmt.Errorf("dist: lease %d with negative attempt", f.Lease.ID)
		}
		want = 1
	case TypeResult:
		if f.Result == nil {
			return fmt.Errorf("dist: result frame without result payload")
		}
		switch f.Result.Class {
		case "", "deterministic", "transient":
		default:
			return fmt.Errorf("dist: result %d with unknown error class %q", f.Result.ID, f.Result.Class)
		}
		if f.Result.Err == "" && f.Result.Class != "" {
			return fmt.Errorf("dist: result %d classifies an absent error", f.Result.ID)
		}
		if f.Result.Attempt < 0 {
			return fmt.Errorf("dist: result %d with negative attempt", f.Result.ID)
		}
		want = 1
	case TypeHeartbeat:
		// The ping payload is optional: worker heartbeats have none,
		// coordinator heartbeats carry the clock-offset ping.
		want = 0
		if f.Heartbeat != nil {
			want = 1
		}
	default:
		return fmt.Errorf("dist: unknown frame type %q", f.Type)
	}
	if f.Telemetry != nil && f.Type != TypeResult && f.Type != TypeHeartbeat {
		return fmt.Errorf("dist: telemetry on a %s frame (it rides result and heartbeat frames only)", f.Type)
	}
	if got != want {
		return fmt.Errorf("dist: %s frame with %d payloads (want %d)", f.Type, got, want)
	}
	return nil
}

// EncodeFrame renders f as one wire frame: the protocol version byte, a
// 4-byte big-endian payload length, a 4-byte big-endian IEEE CRC32 of
// the payload, and the JSON payload.
func EncodeFrame(f *Frame) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding %s frame: %w", f.Type, err)
	}
	if len(payload) > MaxFramePayload {
		return nil, fmt.Errorf("dist: %s frame payload is %d bytes (max %d)", f.Type, len(payload), MaxFramePayload)
	}
	buf := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	buf[0] = ProtocolVersion
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[5:9], crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

// DecodeFrame reads one frame from r. Truncated input, a foreign
// version byte, an oversize or zero length prefix, a payload failing
// its CRC, malformed JSON, an unknown frame type, a payload mismatching
// the type, and invalid non-finite sentinels all return an error; the
// decoder never panics and never allocates more than MaxFramePayload
// for one frame.
func DecodeFrame(r io.Reader) (*Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// Propagate a clean EOF at a frame boundary unchanged so peers
		// can distinguish an orderly close from a torn frame.
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("dist: reading frame header: %w", err)
	}
	if hdr[0] != ProtocolVersion {
		return nil, fmt.Errorf("dist: unsupported protocol version %d (want %d)", hdr[0], ProtocolVersion)
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n == 0 {
		return nil, fmt.Errorf("dist: zero-length frame payload")
	}
	if n > MaxFramePayload {
		return nil, fmt.Errorf("dist: frame payload of %d bytes exceeds the %d-byte bound", n, MaxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("dist: reading %d-byte frame payload: %w", n, err)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(hdr[5:9]) {
		return nil, fmt.Errorf("dist: frame payload fails checksum (corrupted in flight)")
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var f Frame
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("dist: decoding frame payload: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}
