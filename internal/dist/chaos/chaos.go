// Package chaos is a fault-injecting middleware for the distributed
// evaluation plane: it wraps any dist.StreamTransport and perturbs the
// byte streams beneath the frame codec — delaying, truncating, and
// corrupting frames, cutting connections, and opening timed network
// partitions — so the coordinator/worker recovery machinery (lease
// requeue, heartbeat eviction, worker session resume, quarantine,
// degraded local fallback) can be soak-tested end to end in-process or
// over real TCP.
//
// Every fault keeps the guarantee of the reliable, ordered byte stream
// it wraps, which is what TCP gives the plane: each frame is delivered
// exactly once, in order, or the connection ends. A delay stalls a
// frame; a partition holds every frame written or received while its
// window is open and delivers them when it closes, as TCP
// retransmission would, unless the connection dies first; truncation,
// corruption (which the frame CRC turns into a decode error) and reset
// end the connection. No fault loses or repeats a frame on a live
// connection, so the plane needs no redelivery.
//
// It is the network-level sibling of internal/faultsim, and borrows
// its determinism discipline: every fault decision is a pure function
// of (seed, connection ID, direction, frame sequence number), so a
// given seed yields a replayable fault schedule for a given order of
// connection establishment. The calibration *result* must be bitwise
// identical to a serial run under any schedule — that is the contract
// the chaos soak tests enforce.
//
// Frame alignment relies on two invariants of the dist package: Send
// writes each encoded frame with exactly one Write on the underlying
// stream (see dist.NewFrameConn), and every frame starts with the
// 9-byte version/length/CRC header (dist.FrameHeaderLen). Corruption
// flips payload bytes only, never header bytes, so the stream stays
// parseable and the CRC turns every corruption into a detected decode
// error on the receiver rather than a silently altered message.
package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"simcal/internal/dist"
)

// direction of a frame relative to the wrapped connection.
const (
	dirOut = 1
	dirIn  = 2
)

// fault actions, in cumulative-threshold order (must match decide).
const (
	actNone = iota
	actDelay
	actTruncate
	actCorrupt
	actReset
)

// Transport wraps a StreamTransport with fault injection on both
// directions of every connection, presenting the result as a plain
// dist.Transport. The same instance must wrap both ends only if both
// ends live in one process (the loopback soak tests); over TCP each
// process owns its own instance and seed, which is still a
// deterministic schedule per process.
type Transport struct {
	inner dist.StreamTransport
	prof  Profile
	seed  int64
	start time.Time

	connSeq atomic.Uint64

	delays    atomic.Int64
	truncates atomic.Int64
	corrupts  atomic.Int64
	resets    atomic.Int64
	held      atomic.Int64
}

// New wraps inner with the given fault profile. The seed fixes the
// fault schedule; the same seed and connection-establishment order
// replay the same faults. Partition windows in the profile are
// measured from this call.
func New(inner dist.StreamTransport, prof Profile, seed int64) (*Transport, error) {
	if err := prof.validate(); err != nil {
		return nil, err
	}
	if prof.Delay <= 0 {
		prof.Delay = DefaultDelay
	}
	return &Transport{inner: inner, prof: prof, seed: seed, start: time.Now()}, nil
}

// Counts snapshots the faults injected so far.
func (t *Transport) Counts() Counts {
	return Counts{
		Delays:    t.delays.Load(),
		Truncates: t.truncates.Load(),
		Corrupts:  t.corrupts.Load(),
		Resets:    t.resets.Load(),
		Held:      t.held.Load(),
	}
}

// Listen implements dist.Transport: accepted connections are wrapped
// with fault injection before the frame codec.
func (t *Transport) Listen(addr string) (dist.Listener, error) {
	sl, err := t.inner.ListenStream(addr)
	if err != nil {
		return nil, err
	}
	return &listener{t: t, sl: sl}, nil
}

// Dial implements dist.Transport.
func (t *Transport) Dial(addr string) (dist.Conn, error) {
	raw, err := t.inner.DialStream(addr)
	if err != nil {
		return nil, err
	}
	return dist.NewFrameConn(t.wrap(raw)), nil
}

// listener wraps accepted byte streams in fault injection.
type listener struct {
	t  *Transport
	sl dist.StreamListener
}

// Accept implements dist.Listener.
func (l *listener) Accept() (dist.Conn, error) {
	raw, err := l.sl.Accept()
	if err != nil {
		return nil, err
	}
	return dist.NewFrameConn(l.t.wrap(raw)), nil
}

// Close implements dist.Listener.
func (l *listener) Close() error { return l.sl.Close() }

// Addr implements dist.Listener.
func (l *listener) Addr() string { return l.sl.Addr() }

// wrap builds the fault-injecting net.Conn around a raw stream and
// starts its inbound pump.
func (t *Transport) wrap(raw net.Conn) net.Conn {
	pr, pw := io.Pipe()
	c := &conn{
		t:      t,
		id:     t.connSeq.Add(1),
		inner:  raw,
		pr:     pr,
		closed: make(chan struct{}),
	}
	go c.pump(pw)
	return c
}

// mix is the splitmix64/murmur3 finalizer: a bijective avalanche over
// 64 bits, the same construction internal/faultsim seeds from.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hash derives the per-frame decision word from the schedule
// coordinates. Pure: no state, so schedules replay.
func (t *Transport) hash(connID uint64, dir, seq uint64) uint64 {
	h := mix(uint64(t.seed) ^ 0x6a09e667f3bcc909)
	h = mix(h ^ connID*0x9e3779b97f4a7c15)
	h = mix(h ^ dir*0xbf58476d1ce4e5b9)
	h = mix(h ^ seq*0x94d049bb133111eb)
	return h
}

// decide maps a frame's decision word onto the profile's cumulative
// rate thresholds.
func (t *Transport) decide(connID uint64, dir, seq uint64) (action int, word uint64) {
	word = t.hash(connID, dir, seq)
	u := float64(word>>11) / (1 << 53)
	p := t.prof
	for _, step := range []struct {
		rate float64
		act  int
	}{
		{p.DelayRate, actDelay}, {p.TruncateRate, actTruncate}, {p.CorruptRate, actCorrupt}, {p.ResetRate, actReset},
	} {
		if u < step.rate {
			return step.act, word
		}
		u -= step.rate
	}
	return actNone, word
}

// partitionEnd returns when the partition window open now closes, or
// the zero time when none is open.
func (t *Transport) partitionEnd() time.Time {
	el := time.Since(t.start)
	for _, w := range t.prof.Partitions {
		if el >= w.At && el < w.At+w.For {
			return t.start.Add(w.At + w.For)
		}
	}
	return time.Time{}
}

// conn is one fault-injected byte stream. Writes inject outbound
// faults inline (relying on the one-Write-per-frame invariant of the
// frame codec above it); reads come from a pipe fed by the pump
// goroutine, which parses raw frames off the inner stream and injects
// inbound faults frame by frame.
type conn struct {
	t     *Transport
	id    uint64
	inner net.Conn
	pr    *io.PipeReader

	// wmu orders the frames reaching inner: a Write, or release flushing
	// the frames a partition held. held is non-empty from the first frame
	// a partition holds until release has sent them all.
	wmu    sync.Mutex
	outSeq uint64 // guarded by wmu
	held   [][]byte

	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// isFrame reports whether b is exactly one protocol frame, which is
// what the codec's one-Write-per-frame invariant guarantees. Anything
// else (never expected) passes through unperturbed rather than
// desynchronizing the stream.
func isFrame(b []byte) bool {
	return len(b) >= dist.FrameHeaderLen &&
		b[0] == dist.ProtocolVersion &&
		binary.BigEndian.Uint32(b[1:5]) == uint32(len(b)-dist.FrameHeaderLen)
}

// Write implements net.Conn with outbound fault injection.
func (c *conn) Write(b []byte) (int, error) {
	if !isFrame(b) {
		return c.inner.Write(b)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if len(c.held) > 0 || !c.t.partitionEnd().IsZero() {
		// The network is partitioned: the local stack accepts the frame
		// and sends it, behind any it already holds, once the partition
		// heals. Held frames take no part in the fault schedule.
		select {
		case <-c.closed:
			return 0, net.ErrClosed
		default:
		}
		if len(c.held) == 0 {
			go c.release()
		}
		c.held = append(c.held, bytes.Clone(b))
		c.t.held.Add(1)
		return len(b), nil
	}
	c.outSeq++
	act, word := c.t.decide(c.id, dirOut, c.outSeq)
	switch act {
	case actDelay:
		c.t.delays.Add(1)
		time.Sleep(c.t.prof.Delay)
		return c.inner.Write(b)
	case actTruncate:
		c.t.truncates.Add(1)
		// Half a frame, then the connection dies mid-send.
		_, _ = c.inner.Write(b[:dist.FrameHeaderLen+(len(b)-dist.FrameHeaderLen)/2])
		c.Close()
		return 0, fmt.Errorf("chaos: connection truncated mid-frame")
	case actCorrupt:
		c.t.corrupts.Add(1)
		return c.inner.Write(corrupt(b, word))
	case actReset:
		c.t.resets.Add(1)
		c.Close()
		return 0, fmt.Errorf("chaos: connection reset")
	}
	return c.inner.Write(b)
}

// hold waits until no partition window is open. It reports false if
// the connection is closed first: what it held dies with it.
func (c *conn) hold() bool {
	for end := c.t.partitionEnd(); !end.IsZero(); end = c.t.partitionEnd() {
		timer := time.NewTimer(time.Until(end))
		select {
		case <-timer.C:
		case <-c.closed:
			timer.Stop()
			return false
		}
	}
	return true
}

// release sends the frames a partition held, in order, once it heals.
func (c *conn) release() {
	ok := c.hold()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for i := 0; ok && i < len(c.held); i++ {
		_, err := c.inner.Write(c.held[i])
		ok = err == nil
	}
	c.held = nil
}

// corrupt returns a copy of frame b with one payload byte flipped. The
// position is derived from the decision word, so corruption replays
// with the schedule; the header is never touched, keeping the stream
// frame-aligned so the receiver reports a CRC error, not a desync.
func corrupt(b []byte, word uint64) []byte {
	cp := make([]byte, len(b))
	copy(cp, b)
	payload := len(b) - dist.FrameHeaderLen
	if payload <= 0 {
		return cp
	}
	pos := dist.FrameHeaderLen + int(mix(word)%uint64(payload))
	cp[pos] ^= 0xA5
	return cp
}

// pump reads raw frames off the inner stream and forwards them —
// subject to inbound faults — into the pipe the Read side drains.
// Whatever it reads inside a partition window, a frame or the end of
// the stream, waits for the window to close and then passes unperturbed.
func (c *conn) pump(pw *io.PipeWriter) {
	var seq uint64
	hdr := make([]byte, dist.FrameHeaderLen)
	for {
		frame, err := c.readFrame(hdr)
		held := !c.t.partitionEnd().IsZero()
		if held && err == nil {
			c.t.held.Add(1)
		}
		if held && !c.hold() {
			return
		}
		if err != nil {
			pw.CloseWithError(err)
			c.inner.Close()
			return
		}
		if !held {
			seq++
			if frame = c.inbound(pw, frame, seq); frame == nil {
				return
			}
		}
		if _, err := pw.Write(frame); err != nil {
			return // the Read side closed: drain no further
		}
	}
}

// inbound applies the fault schedule to the seq-th inbound frame not
// held by a partition. It returns the frame to forward, or nil when the
// fault ended the connection.
func (c *conn) inbound(pw *io.PipeWriter, frame []byte, seq uint64) []byte {
	act, word := c.t.decide(c.id, dirIn, seq)
	switch act {
	case actDelay:
		c.t.delays.Add(1)
		time.Sleep(c.t.prof.Delay)
	case actTruncate:
		c.t.truncates.Add(1)
		_, _ = pw.Write(frame[:dist.FrameHeaderLen+(len(frame)-dist.FrameHeaderLen)/2])
		pw.CloseWithError(fmt.Errorf("chaos: connection truncated mid-frame"))
		c.inner.Close()
		return nil
	case actCorrupt:
		c.t.corrupts.Add(1)
		return corrupt(frame, word)
	case actReset:
		c.t.resets.Add(1)
		pw.CloseWithError(fmt.Errorf("chaos: connection reset"))
		c.inner.Close()
		return nil
	}
	return frame
}

// readFrame reads one raw frame off the inner stream. It trusts the
// sender's frame alignment just enough to find boundaries: a bad
// version byte or oversized length means the stream is already garbage
// (e.g. a peer truncation landed mid-frame), so it fails, exactly like
// the real decoder.
func (c *conn) readFrame(hdr []byte) ([]byte, error) {
	if _, err := io.ReadFull(c.inner, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if hdr[0] != dist.ProtocolVersion || n > dist.MaxFramePayload {
		return nil, fmt.Errorf("chaos: inbound stream desynced (version %d, length %d)", hdr[0], n)
	}
	frame := make([]byte, dist.FrameHeaderLen+int(n))
	copy(frame, hdr)
	if _, err := io.ReadFull(c.inner, frame[dist.FrameHeaderLen:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// Read implements net.Conn from the pump's pipe.
func (c *conn) Read(b []byte) (int, error) { return c.pr.Read(b) }

// Close implements net.Conn. Closing the pipe reader unblocks both a
// pending Read and a pump blocked mid-Write.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.closeErr = c.inner.Close()
		c.pr.CloseWithError(io.ErrClosedPipe)
	})
	return c.closeErr
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn. Deadlines apply to the inner
// stream; a read deadline unblocks the pump, whose error then reaches
// the Read side through the pipe.
func (c *conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
