package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/dist"
)

// testScale shrinks every workload to ~2 % of its budget (no lower than
// its floor), which keeps the whole file in the seconds range.
const testScale = 0.02

func testOpts(t *testing.T) runOpts {
	return runOpts{seed: 3, scale: testScale, setups: 1, started: time.Now(), tmpDir: t.TempDir()}
}

// Every workload, at small scale, completes and passes its correctness
// check on both passes; the traced pass reports every per-layer metric
// and writes a span tree whose spans all hang off the workload span.
func TestWorkloadsSmallScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := testOpts(t)
			rep, err := runE2E(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() || rep.Attempted == 0 {
				t.Fatalf("end-to-end pass: %d failed of %d: %v", rep.Failed, rep.Attempted, rep.Mismatches)
			}
			for _, m := range e2eMetrics {
				s, ok := rep.EndToEnd[m.name]
				if m.name == timeToTarget && !(w.deterministic && w.name != "svc-wf-jobs") {
					if ok {
						t.Errorf("%s reported on a workload it is not defined for", m.name)
					}
					continue
				}
				if !ok || !(s.Median > 0) {
					t.Errorf("%s = %+v, want a positive median", m.name, s)
				}
			}

			o.spansPath = filepath.Join(o.tmpDir, "spans.json")
			rep, err = runTraced(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("traced pass: %d failed of %d: %v", rep.Failed, rep.Attempted, rep.Mismatches)
			}
			if len(rep.PerLayer) != len(layerMetrics) {
				t.Errorf("traced pass reported %d per-layer metrics, want %d", len(rep.PerLayer), len(layerMetrics))
			}
			sum := 0.0
			for name, s := range rep.SelfTimeS {
				if name != "wall" {
					sum += s
				}
			}
			if wall := rep.SelfTimeS["wall"]; math.Abs(sum-wall) > 0.01*wall {
				t.Errorf("self times sum to %v, traced wall is %v", sum, wall)
			}
			var doc struct {
				Spans []spanDoc `json:"spans"`
			}
			if err := readJSONFile(o.spansPath, &doc); err != nil {
				t.Fatal(err)
			}
			roots := 0
			for _, s := range doc.Spans {
				if s.Parent == 0 {
					roots++
					if s.Name != spanWorkload {
						t.Errorf("span %d (%s) has no parent", s.ID, s.Name)
					}
				}
			}
			if roots != 1 {
				t.Errorf("%d root spans, want the workload span alone", roots)
			}
		})
	}
}

type plainSim struct{}

func (plainSim) Run(context.Context, core.Point) (float64, error) { return 1, nil }

type hinterSim struct{ plainSim }

func (hinterSim) EvalConcurrency() int { return 7 }

type asyncSim struct{ plainSim }

func (asyncSim) RunAsync(_ context.Context, _ core.Point, done func(float64, error)) { done(2, nil) }

type bothSim struct {
	hinterSim
}

func (bothSim) RunAsync(_ context.Context, _ core.Point, done func(float64, error)) { done(2, nil) }

// The decorator must expose exactly the optional interfaces of what it
// wraps — otherwise core sizes its pool or picks its async path
// differently in the traced run than in the untraced one.
func TestDecoratorKeepsOptionalInterfaces(t *testing.T) {
	space := nullSpace()
	for _, tc := range []struct {
		name          string
		sim           core.Simulator
		hinter, async bool
	}{
		{"plain", plainSim{}, false, false},
		{"hinter", hinterSim{}, true, false},
		{"async", asyncSim{}, false, true},
		{"both", bothSim{}, true, true},
	} {
		tr := newTracer()
		tr.on.Store(true)
		wrapped := tr.wrap(tc.sim, spanRemote, space, "")
		h, isHinter := wrapped.(core.ConcurrencyHinter)
		a, isAsync := wrapped.(core.AsyncSimulator)
		if isHinter != tc.hinter || isAsync != tc.async {
			t.Errorf("%s: wrapped is hinter=%v async=%v, want %v %v", tc.name, isHinter, isAsync, tc.hinter, tc.async)
		}
		if isHinter && h.EvalConcurrency() != 7 {
			t.Errorf("%s: EvalConcurrency = %d, want the wrapped simulator's 7", tc.name, h.EvalConcurrency())
		}
		if _, err := wrapped.Run(context.Background(), core.Point{}); err != nil {
			t.Fatal(err)
		}
		want := 1
		if isAsync {
			got := 0.0
			a.RunAsync(context.Background(), core.Point{}, func(loss float64, _ error) { got = loss })
			if got != 2 {
				t.Errorf("%s: RunAsync delivered %v, want the wrapped simulator's 2", tc.name, got)
			}
			want = 2
		}
		if n := len(tr.byName(spanRemote)); n != want {
			t.Errorf("%s: %d spans recorded, want %d", tc.name, n, want)
		}
	}
	if got := (*tracer)(nil).wrap(plainSim{}, spanSim, space, ""); got != (plainSim{}) {
		t.Errorf("a nil tracer wrapped the simulator: %T", got)
	}
	// The real thing: the coordinator's evaluator has both.
	coord := dist.NewCoordinator(dist.CoordinatorConfig{})
	defer coord.Close()
	wrapped := newTracer().wrapRemote(coord.Evaluator(nullSpec), space, "")
	if _, ok := wrapped.(core.ConcurrencyHinter); !ok {
		t.Error("wrapped RemoteEvaluator lost core.ConcurrencyHinter")
	}
	if _, ok := wrapped.(core.AsyncSimulator); !ok {
		t.Error("wrapped RemoteEvaluator lost core.AsyncSimulator")
	}
}

// One Send is one Write on the counted stream, carrying exactly the
// encoded frame — the invariant frames_per_eval and wire_bytes_per_eval
// rest on.
func TestCountingConnOneWritePerFrame(t *testing.T) {
	var counts wireCounts
	tr := countingTransport{inner: dist.NewLoopback(), counts: &counts}
	ln, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan dist.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	if server == nil {
		t.FailNow()
	}
	defer server.Close()

	frames := []*dist.Frame{
		{Type: dist.TypeHello, Hello: &dist.HelloMsg{Name: "w", Capacity: 2}},
		{Type: dist.TypeLease, Lease: &dist.LeaseMsg{ID: 1, Spec: nullSpec, Point: map[string]dist.WireFloat{"x0": 0.5}}},
		{Type: dist.TypeResult, Result: &dist.ResultMsg{ID: 1, Loss: 0.25}},
		{Type: dist.TypeHeartbeat},
	}
	wantBytes := 0
	for i, f := range frames {
		buf, err := dist.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes += len(buf)
		// Alternate directions: both ends are counted.
		from, to := client, server
		if i%2 == 1 {
			from, to = server, client
		}
		sent := make(chan error, 1)
		go func() { sent <- from.Send(f) }()
		got, err := to.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		if got.Type != f.Type {
			t.Fatalf("frame %d arrived as %s, sent %s", i, got.Type, f.Type)
		}
	}
	if got := counts.frames.Load(); got != int64(len(frames)) {
		t.Errorf("%d Writes for %d frames", got, len(frames))
	}
	if got := counts.bytes.Load(); got != int64(wantBytes) {
		t.Errorf("%d bytes counted, frames encode to %d", got, wantBytes)
	}
}

// The null simulator sums in Space order, so the same point gives the
// same bits on every call (a range over the point map would not).
func TestNullSimSameBits(t *testing.T) {
	space := nullSpace()
	sim := newNullSim(space)
	p := space.Decode([]float64{0.1, 0.7, 0.3, 0.9, 0.5, 0.2})
	first, err := sim.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		got, _ := sim.Run(context.Background(), p.Clone())
		if math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d returned %x, first call %x", i, math.Float64bits(got), math.Float64bits(first))
		}
	}
}

func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, m := range list {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

func TestCompareClassifies(t *testing.T) {
	mk := func(scaleBy float64) *report {
		w := &workloadReport{Name: "w", EndToEnd: map[string]summary{}}
		for _, m := range e2eMetrics {
			base := []float64{99, 100, 100.5, 101, 102}
			for i := range base {
				base[i] *= scaleBy
			}
			w.EndToEnd[m.name] = summarize(m.unit, base)
		}
		return &report{Workloads: []*workloadReport{w}}
	}
	verdicts := func(a, b *report) map[string]string {
		out := map[string]string{}
		for _, m := range e2eMetrics {
			out[m.name] = classify(m, a.Workloads[0].EndToEnd[m.name], b.Workloads[0].EndToEnd[m.name])
		}
		return out
	}
	base := mk(1)
	for name, v := range verdicts(base, mk(1)) {
		if v != verdictOK {
			t.Errorf("identical reports: %s is %s", name, v)
		}
	}
	// Scaling every sample by f worsens a lower-is-better metric by f-1
	// and a higher-is-better one by 1-f; it is a regression exactly when
	// that exceeds the metric's bound.
	for _, f := range []float64{0.7, 0.85, 1.15, 1.3} {
		wantRegressed := 0
		for name, v := range verdicts(base, mk(f)) {
			m, _ := metricByName(name)
			worse := f - 1
			if m.better == higher {
				worse = 1 - f
			}
			want := verdictOK
			if worse > m.bound {
				want = verdictRegressed
				wantRegressed++
			}
			if v != want {
				t.Errorf("x%v: %s (%s is better, bound %v) is %s, want %s", f, name, m.better, m.bound, v, want)
			}
		}
		var out bytes.Buffer
		if regressed, unresolved := compareReports(&out, base, mk(f)); regressed != wantRegressed || unresolved != 0 {
			t.Errorf("x%v report: %d regressed, %d unresolved, want %d and 0\n%s", f, regressed, unresolved, wantRegressed, out.String())
		}
	}
	// A spread wider than the bound cannot settle a small difference.
	m, _ := metricByName("evals_per_s")
	wide := summarize(m.unit, []float64{40, 70, 100, 130, 160})
	if v := classify(m, wide, summarize(m.unit, []float64{38, 68, 97, 128, 158})); v != verdictUnresolved {
		t.Errorf("overlapping wide spreads: %s, want %s", v, verdictUnresolved)
	}
}

// BENCHMARK.json is written by hand; the program's own lists are what
// runs. They must name the same workloads and metrics, with the same
// units, directions and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []entry                      `json:"end_to_end"`
		PerLayer  []entry                      `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program reports %d", len(got), kind, len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
		}
	}
	var contract []metricDef
	for _, m := range e2eMetrics {
		if m.name != timeToTarget {
			contract = append(contract, m)
		}
	}
	check("end-to-end", doc.EndToEnd, contract)
	check("per-layer", doc.PerLayer, layerMetrics)
}
