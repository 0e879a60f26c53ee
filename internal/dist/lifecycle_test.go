package dist

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Workers may be closed before or after their server: closed while the
// coordinator still serves, their sessions end at once and the
// coordinator sees them go; a server closed first ends its workers'
// sessions in order.
func TestLifecycleClosesInEitherOrder(t *testing.T) {
	lb := NewLoopback()
	srv, err := Serve(lb, "", CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := func(n int) *Workers {
		ws, err := StartWorkers(lb, srv.Addr(), n, WorkerConfig{Factory: sameFactory}, SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Coord.WaitForWorkers(ctx, n); err != nil {
			t.Fatal(err)
		}
		return ws
	}

	if err := start(2).Close(); !errors.Is(err, context.Canceled) {
		t.Errorf("workers closed while served: %v, want context.Canceled", err)
	}
	waitFor(t, "the closed workers to leave the fleet", func() bool { return srv.Coord.WorkerCount() == 0 })

	ws := start(2)
	if err := srv.Close(); err != nil {
		t.Errorf("server: %v", err)
	}
	if err := ws.Wait(); err != nil {
		t.Errorf("workers after their server closed: %v, want nil (an orderly close)", err)
	}
}
