package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/simspec"
)

var update = flag.Bool("update", false, "re-record testdata/artifacts_golden.json from the current drivers")

const goldenPath = "testdata/artifacts_golden.json"

// goldenExcluded names the artifacts whose result is not a pure function
// of Options, each with its reason. Every other row of Artifacts is in
// the golden.
var goldenExcluded = map[string]string{
	"figure3":   "calibrates under a wall-clock budget (Options.TrainingBudget; ROADMAP item 3)",
	"section55": "calibrates under a wall-clock budget (Options.TrainingBudget; ROADMAP item 3)",
	"faults":    "with Workers > 1 which evaluation draws which injected fault depends on scheduling (faultsim package doc)",
}

// upgradeGolden maps a result recorded from the per-case-study drivers,
// before their result types merged, onto today's JSON keys — the file was
// recorded at the parent of that merge and is compared through this map
// rather than re-recorded. Results already in today's shape pass through
// unchanged.
func upgradeGolden(id string, v any) {
	m, ok := v.(map[string]any)
	if !ok {
		return
	}
	rename := func(from, to string) {
		if x, ok := m[from]; ok {
			m[to] = x
			delete(m, from)
		}
	}
	switch id {
	case "table3": // Table3Result.Errors
		rename("Errors", "CalibErrors")
	case "baseline1": // Baseline1Result.PerApp
		rename("PerApp", "PerGroup")
	case "baseline2": // Baseline2Result.PerBenchmark
		rename("PerBenchmark", "PerGroup")
	case "figure1": // Figure1Result.App
		if app, ok := m["App"]; ok {
			m["Dataset"] = fmt.Sprintf("app=%v", app)
			delete(m, "App")
		}
	case "figure4": // Figure4Result.Nodes
		if nodes, ok := m["Nodes"]; ok {
			m["Dataset"] = fmt.Sprintf("%v nodes", nodes)
			delete(m, "Nodes")
		}
	}
}

// zeroWallClock zeroes the wall-clock measurements (ConvergencePoint.
// Elapsed, VersionAccuracy.SimMicros) anywhere in a decoded result.
func zeroWallClock(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if k == "Elapsed" || k == "SimMicros" {
				x[k] = 0
			} else {
				zeroWallClock(e)
			}
		}
	case []any:
		for _, e := range x {
			zeroWallClock(e)
		}
	}
}

// canonical re-encodes a JSON document with sorted keys, today's key
// names and zeroed wall-clock fields. Go's JSON floats round-trip
// exactly, so equal bytes mean Float64bits-equal results.
func canonical(t *testing.T, id string, doc []byte) []byte {
	t.Helper()
	var tree any
	if err := json.Unmarshal(doc, &tree); err != nil {
		t.Fatal(err)
	}
	upgradeGolden(id, tree)
	zeroWallClock(tree)
	out, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runArtifact runs a under o and returns its canonical JSON.
func runArtifact(t *testing.T, a Artifact, o Options) []byte {
	t.Helper()
	res, err := a.Run(context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", a.ID, err)
	}
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: %v", a.ID, err)
	}
	return canonical(t, a.ID, doc)
}

// routedCalibrations is Options.Remote's rule as numbers: how many
// evaluators each artifact asks the fleet for at the tiny() scale (one
// per calibration cell whose training set a spec describes). Artifacts
// not listed evaluate locally.
var routedCalibrations = map[string]int64{
	"table3": 12, "table5": 8, // algorithms × losses
	"figure1": 1, "figure4": 1,
	"figure5": 16, "baseline2": 1, "section65": 2, // every MPI calibration
	"ablation-alg": 1, "ablation-budget": 1,
}

// loopbackFleet starts a coordinator with two in-process workers that
// build simulators from specs, and returns the Options.Remote hook onto
// it together with a counter of the evaluators it handed out.
func loopbackFleet(t *testing.T) (remote func(simspec.Spec) (core.Simulator, error), routed *atomic.Int64) {
	t.Helper()
	tr := dist.NewLoopback()
	srv, err := dist.Serve(tr, "", dist.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	workers, err := dist.StartWorkers(tr, srv.Addr(), 2, dist.WorkerConfig{Capacity: 2, Factory: simspec.BuildSimulator}, dist.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		workers.Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Coord.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	coord := srv.Coord
	routed = new(atomic.Int64)
	return func(sp simspec.Spec) (core.Simulator, error) {
		b, err := sp.Canonical()
		if err != nil {
			return nil, err
		}
		routed.Add(1)
		return coord.Evaluator(b), nil
	}, routed
}

// TestArtifactsGolden pins every bit of every artifact that is a pure
// function of Options to the values the per-case-study drivers produced
// before they became instantiations of the generic ones (the golden was
// recorded from those drivers, at the tiny() scale) — serial, with cells
// run concurrently, with an evaluation cache attached, and with every
// spec-described calibration evaluated on a two-worker fleet.
// `go test -run TestArtifactsGolden -update` re-records it.
func TestArtifactsGolden(t *testing.T) {
	if *update {
		got := make(map[string]json.RawMessage)
		for _, a := range Artifacts {
			if goldenExcluded[a.ID] == "" {
				got[a.ID] = runArtifact(t, a, tiny())
			}
		}
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(file, &golden); err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, o Options, after func(t *testing.T, id string)) {
		for _, a := range Artifacts {
			if goldenExcluded[a.ID] != "" {
				continue
			}
			want, ok := golden[a.ID]
			if !ok {
				t.Errorf("%s: not in %s and not in goldenExcluded — record it with -update or state why it cannot be", a.ID, goldenPath)
				continue
			}
			if got, want := runArtifact(t, a, o), canonical(t, a.ID, want); !bytes.Equal(got, want) {
				t.Errorf("%s:\n got %s\nwant %s", a.ID, got, want)
			}
			if after != nil {
				after(t, a.ID)
			}
		}
	}
	t.Run("serial", func(t *testing.T) { check(t, tiny(), nil) })
	t.Run("jobs2", func(t *testing.T) {
		o := tiny()
		o.Jobs = 2
		check(t, o, nil)
	})
	t.Run("cache", func(t *testing.T) {
		o := tiny()
		o.Cache = cache.New(nil)
		check(t, o, nil)
	})
	t.Run("fleet", func(t *testing.T) {
		o := tiny()
		var routed *atomic.Int64
		o.Remote, routed = loopbackFleet(t)
		check(t, o, func(t *testing.T, id string) {
			if n := routed.Swap(0); n != routedCalibrations[id] {
				t.Errorf("%s: %d calibrations went through Options.Remote, want %d", id, n, routedCalibrations[id])
			}
		})
	})
}
