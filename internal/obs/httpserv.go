package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"time"
)

// Server is the live observability endpoint every binary can mount:
//
//	/metrics      Prometheus text exposition of a Registry (deterministic,
//	              sorted — see Snapshot.WritePrometheus)
//	/healthz      liveness probe, always "ok"
//	/statusz      JSON snapshot: build/version/uptime, the well-known
//	              calibration metrics, and the caller's Status payload
//	              (e.g. dist.Coordinator.Status: connected workers, lease
//	              queue depth, clock offsets)
//	/debug/vars   expvar JSON (including registries published with
//	              PublishExpvar)
//	/debug/pprof  the standard pprof handlers
//
// Unlike a bare http.ListenAndServe, StartServer binds synchronously —
// a bind failure surfaces to the caller instead of being a stderr note
// from a forgotten goroutine — and Shutdown drains in-flight requests
// under a caller context.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// ServerConfig configures a Server. The zero value serves the default
// registry with no extra status payload.
type ServerConfig struct {
	// Registry is the metrics source for /metrics and /statusz; nil
	// means Default().
	Registry *Registry
	// Refresh, when non-nil, runs before every /metrics and /statusz
	// snapshot — the hook a coordinator uses to bring lazily computed
	// fleet gauges (heartbeat ages, in-flight leases) up to date.
	Refresh func()
	// Status, when non-nil, contributes the "status" member of the
	// /statusz document. The returned value must be JSON-encodable;
	// non-finite floats are replaced by the trace sentinels.
	Status func() any
	// Jobs, when non-nil, contributes the "jobs" member of the
	// /statusz document — the calibration job server's view of
	// submitted/running/finished jobs.
	Jobs func() any
	// Mount, when non-nil, registers additional routes on the server's
	// mux before the standard endpoints — the hook the calibration job
	// server uses to expose its /v1/jobs API on the same plane. It must
	// not claim the standard paths (/metrics, /statusz, /healthz,
	// /debug/...).
	Mount func(mux *http.ServeMux)
}

// StartServer binds addr and serves the observability endpoints in a
// background goroutine. It returns once the listener is bound, so "the
// port is taken" is an error the process can exit non-zero on, not a
// log line. Close the server with Shutdown.
func StartServer(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, start: time.Now()}
	reg := cfg.Registry
	if reg == nil {
		reg = Default()
	}
	mux := http.NewServeMux()
	if cfg.Mount != nil {
		cfg.Mount(mux)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.Refresh != nil {
			cfg.Refresh()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.Refresh != nil {
			cfg.Refresh()
		}
		doc := map[string]any{
			"version":  BuildVersion(),
			"pid":      os.Getpid(),
			"go":       runtime.Version(),
			"uptime_s": time.Since(s.start).Seconds(),
		}
		snap := reg.Snapshot()
		if cal := calibrationStatus(snap, time.Now()); cal != nil {
			doc["calibration"] = cal
		}
		if cfg.Status != nil {
			if v := cfg.Status(); v != nil {
				doc["status"] = v
			}
		}
		if cfg.Jobs != nil {
			if v := cfg.Jobs(); v != nil {
				doc["jobs"] = v
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	return s, nil
}

// Addr reports the bound address (resolving ":0" to the actual port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server: the listener closes immediately
// and in-flight requests drain until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

// calibrationStatus extracts the well-known calibration metrics (the
// names core.NewObsObserver registers) from a snapshot for /statusz, or
// nil when none are present — e.g. on a worker, whose registry carries
// only worker.* and simulator metrics. Evaluations and batches are the
// counts of the cal.eval_ns and cal.batch_size histograms. The
// event-name constants beside Tracer are the same kind of cross-package
// contract.
func calibrationStatus(s Snapshot, now time.Time) map[string]any {
	out := make(map[string]any)
	if h, ok := s.Histograms["cal.eval_ns"]; ok {
		out["evaluations"] = h.Count
	}
	if h, ok := s.Histograms["cal.batch_size"]; ok {
		out["bo_iterations"] = h.Count
	}
	if v, ok := s.Gauges["cal.best_loss"]; ok {
		if sentinel, bad := nonFiniteSentinel(v); bad {
			out["best_loss"] = sentinel
		} else {
			out["best_loss"] = v
		}
	}
	if v, ok := s.Gauges["cal.checkpoint_unix_ns"]; ok && v > 0 {
		out["checkpoint_age_s"] = float64(now.UnixNano())/1e9 - v/1e9
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
