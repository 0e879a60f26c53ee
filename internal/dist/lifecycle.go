package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Server is a coordinator served on a listener of its own. It is how
// every fleet starts: a binary's -listen, and each in-process fleet of
// the tests and the conformance table. Close stops it in the one order
// that is safe.
type Server struct {
	Coord *Coordinator

	ln     Listener
	served chan struct{} // closed when Serve has returned
	err    error         // Serve's, read once served is closed
}

// Serve listens on addr over t and serves a coordinator built from cfg
// on it, in a goroutine of its own.
func Serve(t Transport, addr string, cfg CoordinatorConfig) (*Server, error) {
	ln, err := t.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Coord: NewCoordinator(cfg), ln: ln, served: make(chan struct{})}
	go func() {
		defer close(s.served)
		s.err = s.Coord.Serve(ln)
	}()
	return s, nil
}

// Addr is the address workers dial.
func (s *Server) Addr() string { return s.ln.Addr() }

// Close closes the coordinator (its workers see an orderly end), then
// the listener, and waits for Serve to return. It returns Serve's
// error, which is nil unless the listener failed while the coordinator
// was open.
func (s *Server) Close() error {
	s.Coord.Close()
	s.ln.Close()
	<-s.served
	return s.err
}

// Workers is a set of in-process workers, each running
// Worker.RunSession against one coordinator address.
type Workers struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	errs   []error // one per session, read once wg is done
}

// StartWorkers starts n workers built from cfg, each dialling addr over
// t with sc. A worker is named w0, w1, … unless cfg names it, and
// worker i seeds its dial backoff with sc.Seed+i.
func StartWorkers(t Transport, addr string, n int, cfg WorkerConfig, sc SessionConfig) (*Workers, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ws := &Workers{cancel: cancel, errs: make([]error, n)}
	for i := range n {
		c := cfg
		if c.Name == "" {
			c.Name = fmt.Sprintf("w%d", i)
		}
		w, err := NewWorker(c)
		if err != nil {
			ws.Close()
			return nil, err
		}
		s := sc
		s.Seed += int64(i)
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			ws.errs[i] = w.RunSession(ctx, t, addr, s)
		}()
	}
	return ws, nil
}

// Wait waits for every session to end and returns their errors joined:
// nil when each ended with the coordinator's orderly close.
func (ws *Workers) Wait() error {
	ws.wg.Wait()
	return errors.Join(ws.errs...)
}

// Close cancels every session, which closes its connection, and
// returns Wait's error.
func (ws *Workers) Close() error {
	ws.cancel()
	return ws.Wait()
}
