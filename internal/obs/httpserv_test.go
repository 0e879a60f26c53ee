package obs

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 42; i++ {
		reg.Histogram("cal.eval_ns").Observe(1000)
	}
	for i := 0; i < 6; i++ {
		reg.Histogram("cal.batch_size").Observe(7)
	}
	reg.Gauge("cal.best_loss").Set(1.25)
	refreshed := 0
	srv, err := StartServer("127.0.0.1:0", ServerConfig{
		Registry: reg,
		Refresh:  func() { refreshed++ },
		Status:   func() any { return map[string]any{"queue_depth": 3} },
		Jobs:     func() any { return map[string]any{"running": 2} },
		Mount: func(mux *http.ServeMux) {
			mux.HandleFunc("GET /v1/ping", func(w http.ResponseWriter, _ *http.Request) {
				w.Write([]byte("pong\n"))
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	base := "http://" + srv.Addr()

	get := func(path string) (string, *http.Response) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, b)
		}
		return string(b), resp
	}

	body, _ := get("/healthz")
	if body != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}

	body, resp := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(body, "cal_eval_ns_count 42") {
		t.Errorf("/metrics lacks cal_eval_ns_count:\n%s", body)
	}

	body, resp = get("/statusz")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/statusz content-type = %q", ct)
	}
	var doc struct {
		Version     string         `json:"version"`
		UptimeS     float64        `json:"uptime_s"`
		Calibration map[string]any `json:"calibration"`
		Status      map[string]any `json:"status"`
		Jobs        map[string]any `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statusz does not parse: %v\n%s", err, body)
	}
	if doc.Version == "" {
		t.Error("/statusz lacks version")
	}
	if doc.Calibration["evaluations"] != float64(42) || doc.Calibration["bo_iterations"] != float64(6) {
		t.Errorf("/statusz calibration = %v", doc.Calibration)
	}
	if doc.Calibration["best_loss"] != 1.25 {
		t.Errorf("/statusz best_loss = %v", doc.Calibration["best_loss"])
	}
	if doc.Status["queue_depth"] != float64(3) {
		t.Errorf("/statusz status = %v", doc.Status)
	}
	if doc.Jobs["running"] != float64(2) {
		t.Errorf("/statusz jobs = %v", doc.Jobs)
	}
	if refreshed < 2 { // /metrics and /statusz each refresh
		t.Errorf("refresh hook ran %d times, want >= 2", refreshed)
	}

	// Mounted routes share the plane with the standard endpoints.
	body, _ = get("/v1/ping")
	if body != "pong\n" {
		t.Errorf("/v1/ping = %q", body)
	}
}

func TestStartServerBindFailure(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	// Binding the same port again must fail synchronously — the error a
	// CLI turns into a non-zero exit instead of a background log line.
	if dup, err := StartServer(srv.Addr(), ServerConfig{}); err == nil {
		dup.Shutdown(context.Background())
		t.Fatal("second bind on the same address succeeded")
	}
}

func TestCalibrationStatusNonFinite(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("cal.best_loss").Set(math.Inf(1))
	s := calibrationStatus(reg.Snapshot(), time.Now())
	if s["best_loss"] != "Inf" {
		t.Errorf("non-finite best_loss = %v, want sentinel \"Inf\"", s["best_loss"])
	}
}
