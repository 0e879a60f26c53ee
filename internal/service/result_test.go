package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"simcal/internal/core"
	"simcal/internal/opt"
)

type bowl struct{}

func (bowl) Run(_ context.Context, p core.Point) (float64, error) {
	return p["x"]*p["x"] + p["y"], nil
}

// TestResultBodyIsWriteJSONs: /result is exactly the bytes WriteJSON
// writes for the job's result, history included, which handleResult
// hands WriteJSON its response to write in one Write; and a result
// WriteJSON refuses (a NaN point value) answers 500 with an error
// document, none of the result's bytes before it.
func TestResultBodyIsWriteJSONs(t *testing.T) {
	alg, err := opt.ByName("RAND")
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&core.Calibrator{
		Space: core.Space{
			{Name: "x", Kind: core.Continuous, Min: -1, Max: 1},
			{Name: "y", Kind: core.Continuous, Min: 0, Max: 1},
		},
		Simulator: bowl{}, Algorithm: alg, MaxEvaluations: 40, Workers: 2, Seed: 3,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mu.Lock()
	s.jobs["j-done"] = &Job{ID: "j-done", state: StateDone, result: res}
	s.mu.Unlock()
	mux := http.NewServeMux()
	s.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get := func() (int, string, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs/j-done/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}

	var want bytes.Buffer
	if err := res.WriteJSON(&want, true); err != nil {
		t.Fatal(err)
	}
	code, ctype, body := get()
	if code != http.StatusOK || ctype != "application/json; charset=utf-8" || !bytes.Equal(body, want.Bytes()) {
		t.Errorf("/result: %d %q, %d bytes; want 200, WriteJSON's %d bytes:\n%.200s", code, ctype, len(body), want.Len(), body)
	}

	res.History[len(res.History)/2].Point["y"] = math.NaN()
	code, _, body = get()
	var e struct{ Error string }
	if code != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "NaN") {
		t.Errorf("/result of a refused document: %d %s; want 500 and an error document naming the NaN", code, body)
	}
}
