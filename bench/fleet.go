package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"simcal/internal/core"
	"simcal/internal/dist"
)

// nullSim is the analytic sum of squares. It sums in Space order: a
// range over the core.Point map would visit the parameters in a
// different order on every call and flip the last ULP run to run.
type nullSim struct{ names []string }

func newNullSim(space core.Space) nullSim { return nullSim{names: spaceNames(space)} }

// Run implements core.Simulator.
func (n nullSim) Run(_ context.Context, p core.Point) (float64, error) {
	sum := 0.0
	for _, name := range n.names {
		v := p[name]
		sum += v * v
	}
	return sum, nil
}

func nullSpace() core.Space {
	sp := make(core.Space, 6)
	for i := range sp {
		sp[i] = core.ParamSpec{Name: fmt.Sprintf("x%d", i), Kind: core.Continuous, Min: -1, Max: 1}
	}
	return sp
}

// fleet is one coordinator plus in-process workers over a transport —
// the same wiring simcald and simcal-worker do across processes.
type fleet struct {
	coord  *dist.Coordinator
	ln     dist.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet(tr dist.Transport, addr string, workers, capacity int, factory dist.Factory) (*fleet, error) {
	ln, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{coord: dist.NewCoordinator(dist.CoordinatorConfig{Name: "bench"}), ln: ln, cancel: cancel}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = f.coord.Serve(ln) // returns when stop closes the listener
	}()
	fail := func(err error) (*fleet, error) {
		f.stop()
		return nil, err
	}
	for i := 0; i < workers; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Capacity: capacity, Factory: factory})
		if err != nil {
			return fail(err)
		}
		conn, err := tr.Dial(ln.Addr())
		if err != nil {
			return fail(err)
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx, conn) // ends with an error when stop closes the coordinator
		}()
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := f.coord.WaitForWorkers(wctx, workers); err != nil {
		return fail(err)
	}
	return f, nil
}

// stop closes the coordinator and waits for every goroutine of the
// fleet to exit.
func (f *fleet) stop() {
	f.coord.Close()
	f.ln.Close()
	f.cancel()
	f.wg.Wait()
}

// wireCounts is what the counting transport has seen: one Write is one
// frame (dist.NewFrameConn's invariant), and every frame of both
// directions is written through exactly one wrapped end.
type wireCounts struct {
	frames atomic.Int64
	bytes  atomic.Int64
}

// countingTransport wraps both ends of every connection of a
// dist.StreamTransport in a countingConn and re-frames them.
type countingTransport struct {
	inner  dist.StreamTransport
	counts *wireCounts
}

// Listen implements dist.Transport.
func (t countingTransport) Listen(addr string) (dist.Listener, error) {
	sl, err := t.inner.ListenStream(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{sl: sl, counts: t.counts}, nil
}

// Dial implements dist.Transport.
func (t countingTransport) Dial(addr string) (dist.Conn, error) {
	raw, err := t.inner.DialStream(addr)
	if err != nil {
		return nil, err
	}
	return dist.NewFrameConn(countingConn{Conn: raw, counts: t.counts}), nil
}

type countingListener struct {
	sl     dist.StreamListener
	counts *wireCounts
}

// Accept implements dist.Listener.
func (l countingListener) Accept() (dist.Conn, error) {
	raw, err := l.sl.Accept()
	if err != nil {
		return nil, err
	}
	return dist.NewFrameConn(countingConn{Conn: raw, counts: l.counts}), nil
}

// Close implements dist.Listener.
func (l countingListener) Close() error { return l.sl.Close() }

// Addr implements dist.Listener.
func (l countingListener) Addr() string { return l.sl.Addr() }

// countingConn counts the Writes and written bytes of one stream end
// and passes every call through unchanged.
type countingConn struct {
	net.Conn
	counts *wireCounts
}

// Write implements net.Conn.
func (c countingConn) Write(b []byte) (int, error) {
	c.counts.frames.Add(1)
	c.counts.bytes.Add(int64(len(b)))
	return c.Conn.Write(b)
}
