package dist

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// Conn is one frame-oriented connection between a coordinator and a
// worker. Send and Recv are each safe for one goroutine at a time
// (both sides of the protocol keep a dedicated reader and serialize
// writes); Close unblocks a pending Recv on the same connection.
type Conn interface {
	// Send writes one frame. It does not retain f, or anything f points
	// to, after it returns: a worker's lease runner sends every result
	// from one Frame, and the coordinator sends a lease's frame from the
	// lease itself, once per worker it is leased to.
	Send(f *Frame) error
	// Recv reads the next frame. It returns io.EOF on an orderly close
	// at a frame boundary.
	Recv() (*Frame, error)
	// Close tears the connection down; both sides observe an error (or
	// io.EOF) from pending and future Send/Recv calls.
	Close() error
}

// Listener accepts inbound worker connections on the coordinator side.
type Listener interface {
	// Accept blocks for the next worker connection.
	Accept() (Conn, error)
	// Close stops accepting; a blocked Accept returns an error.
	Close() error
	// Addr describes the listen endpoint (for logs and worker flags).
	Addr() string
}

// Transport binds the two connection directions together: coordinators
// listen, workers dial. TCP and the in-process loopback implement it;
// everything above this interface is transport-agnostic, so every
// integration test can run on the loopback with full wire fidelity (the
// loopback still encodes and decodes real frames).
type Transport interface {
	// Listen opens a coordinator endpoint. The TCP transport interprets
	// addr as host:port; the loopback ignores it.
	Listen(addr string) (Listener, error)
	// Dial connects a worker to a coordinator endpoint.
	Dial(addr string) (Conn, error)
}

// StreamListener accepts raw byte-stream connections. It is the
// pre-framing half of Listener: wrap each accepted net.Conn in
// NewFrameConn to speak the protocol.
type StreamListener interface {
	// Accept blocks for the next inbound byte stream.
	Accept() (net.Conn, error)
	// Close stops accepting; a blocked Accept returns an error.
	Close() error
	// Addr describes the listen endpoint.
	Addr() string
}

// StreamTransport exposes the byte-stream layer beneath a Transport.
// Middleware that needs to see (and tamper with) the raw frame bytes —
// the chaos fault injector in internal/dist/chaos is the motivating
// case — wraps the net.Conns a StreamTransport yields and re-frames
// them with NewFrameConn. TCP and Loopback implement both interfaces.
type StreamTransport interface {
	// ListenStream opens a coordinator endpoint at the byte level.
	ListenStream(addr string) (StreamListener, error)
	// DialStream connects to a coordinator endpoint at the byte level.
	DialStream(addr string) (net.Conn, error)
}

// frameConn adapts any byte stream to Conn using the wire codec, so the
// TCP and loopback transports share one encode/decode path. Each
// direction reuses its buffers from frame to frame.
type frameConn struct {
	raw net.Conn
	br  *bufio.Reader

	// Receive side, owned by the one goroutine in Recv (and recycle),
	// except that a lease frame comes back from the goroutine that ran
	// it (recycleLease).
	hdr     [FrameHeaderLen]byte
	payload []byte
	dec     decoder

	sendMu sync.Mutex
	out    []byte // the frame being sent; guarded by sendMu

	closeOnce sync.Once
	closeErr  error
}

// NewFrameConn wraps a byte stream in the frame codec. Send writes
// each encoded frame with exactly one Write on raw — transports that
// inspect or perturb traffic at the byte level (internal/dist/chaos)
// rely on that one-Write-per-frame invariant to stay frame-aligned.
func NewFrameConn(raw net.Conn) Conn {
	return newFrameConn(raw)
}

// newFrameConn wraps a byte stream in the frame codec.
func newFrameConn(raw net.Conn) *frameConn {
	return &frameConn{raw: raw, br: bufio.NewReader(raw), dec: decoder{
		names: make(map[string]string), leases: make(chan *Frame, leaseSpares),
	}}
}

// Send implements Conn.
func (c *frameConn) Send(f *Frame) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	buf, err := appendWireFrame(c.out[:0], f)
	c.out = buf
	if err != nil {
		return err
	}
	// One whole frame per Write call — see NewFrameConn.
	if _, err := c.raw.Write(buf); err != nil {
		return fmt.Errorf("dist: sending %s frame: %w", f.Type, err)
	}
	return nil
}

// Recv implements Conn.
func (c *frameConn) Recv() (*Frame, error) {
	payload, err := readPayload(c.br, &c.hdr, c.payload)
	if err != nil {
		return nil, err
	}
	c.payload = payload
	return c.dec.decode(payload)
}

// recycle hands back a frame this connection received, once its reader
// is done with every part of it: the next frame is decoded into its
// memory (decoder.recycle).
func (c *frameConn) recycle(f *Frame) { c.dec.recycle(f) }

// recycleLease hands back a lease frame this connection received, from
// whichever goroutine ran the lease, once nothing holds any part of it:
// a later lease is decoded into its memory (decoder.recycleLease).
func (c *frameConn) recycleLease(f *Frame) { c.dec.recycleLease(f) }

// Close implements Conn.
func (c *frameConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.raw.Close() })
	return c.closeErr
}

// DefaultDialTimeout bounds TCP dial attempts when TCP.DialTimeout is
// left zero.
const DefaultDialTimeout = 10 * time.Second

// TCP is the production Transport over TCP sockets.
type TCP struct {
	// DialTimeout bounds each dial attempt; zero means
	// DefaultDialTimeout.
	DialTimeout time.Duration
}

// framedListener adapts any StreamListener to Listener by wrapping
// accepted streams in the frame codec.
type framedListener struct{ sl StreamListener }

// Accept implements Listener.
func (l *framedListener) Accept() (Conn, error) {
	raw, err := l.sl.Accept()
	if err != nil {
		return nil, err
	}
	return newFrameConn(raw), nil
}

// Close implements Listener.
func (l *framedListener) Close() error { return l.sl.Close() }

// Addr implements Listener.
func (l *framedListener) Addr() string { return l.sl.Addr() }

// tcpListener adapts net.Listener to StreamListener.
type tcpListener struct{ l net.Listener }

// ListenStream implements StreamTransport.
func (TCP) ListenStream(addr string) (StreamListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listening on %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

// Listen implements Transport.
func (t TCP) Listen(addr string) (Listener, error) {
	sl, err := t.ListenStream(addr)
	if err != nil {
		return nil, err
	}
	return &framedListener{sl: sl}, nil
}

// DialStream implements StreamTransport.
func (t TCP) DialStream(addr string) (net.Conn, error) {
	timeout := t.DialTimeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dist: dialing %s: %w", addr, err)
	}
	if tc, ok := raw.(*net.TCPConn); ok {
		// Frames are small and latency-sensitive (a lease blocks one
		// calibration evaluation); never batch them.
		_ = tc.SetNoDelay(true)
	}
	return raw, nil
}

// Dial implements Transport.
func (t TCP) Dial(addr string) (Conn, error) {
	raw, err := t.DialStream(addr)
	if err != nil {
		return nil, err
	}
	return newFrameConn(raw), nil
}

// Accept implements StreamListener.
func (l *tcpListener) Accept() (net.Conn, error) {
	raw, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := raw.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return raw, nil
}

// Close implements StreamListener.
func (l *tcpListener) Close() error { return l.l.Close() }

// Addr implements StreamListener. It reports the bound address, so
// listening on ":0" yields the actual port.
func (l *tcpListener) Addr() string { return l.l.Addr().String() }

// Loopback is an in-process Transport over synchronous net.Pipe pairs.
// It exists so integration tests exercise the full protocol — real
// frame encoding, the same coordinator and worker goroutine structure —
// hermetically, with no sockets, ports, or firewall dependencies.
// Connection kills (Close) behave like a TCP RST: the peer's blocked
// Recv fails immediately, which is what the chaos tests lean on.
type Loopback struct {
	pending   chan net.Conn
	done      chan struct{}
	closeOnce sync.Once
}

// NewLoopback returns an empty loopback transport. Dial and Listen only
// connect within the same Loopback instance.
func NewLoopback() *Loopback {
	return &Loopback{pending: make(chan net.Conn), done: make(chan struct{})}
}

// loopbackListener hands dialed pipe ends to Accept.
type loopbackListener struct{ t *Loopback }

// ListenStream implements StreamTransport. Only one listener is
// supported (the coordinator); addr is ignored.
func (t *Loopback) ListenStream(string) (StreamListener, error) {
	return &loopbackListener{t: t}, nil
}

// Listen implements Transport.
func (t *Loopback) Listen(string) (Listener, error) {
	return &framedListener{sl: &loopbackListener{t: t}}, nil
}

// DialStream implements StreamTransport.
func (t *Loopback) DialStream(string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case t.pending <- server:
		return client, nil
	case <-t.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("dist: loopback transport closed")
	case <-time.After(10 * time.Second):
		client.Close()
		server.Close()
		return nil, fmt.Errorf("dist: loopback dial: no listener accepted within 10s")
	}
}

// Dial implements Transport.
func (t *Loopback) Dial(addr string) (Conn, error) {
	raw, err := t.DialStream(addr)
	if err != nil {
		return nil, err
	}
	return newFrameConn(raw), nil
}

// Accept implements StreamListener.
func (l *loopbackListener) Accept() (net.Conn, error) {
	select {
	case raw := <-l.t.pending:
		return raw, nil
	case <-l.t.done:
		return nil, fmt.Errorf("dist: loopback listener closed")
	}
}

// Close implements StreamListener.
func (l *loopbackListener) Close() error {
	l.t.closeOnce.Do(func() { close(l.t.done) })
	return nil
}

// Addr implements StreamListener.
func (l *loopbackListener) Addr() string { return "loopback" }
