// Package conformance holds the repository's determinism contract in one
// table: a calibration produces the same bits serial, in-process, cached,
// resumed from a checkpoint, on a fleet of any size, over TCP, under
// chaos, as a service job, and behind the fault-tolerant executor.
//
// The table's rows are every calibration the binaries accept —
// opt.AlgorithmNames × (the workflow simulator × loss.AllWFKinds + the
// MPI simulator × loss.AllMPIKinds + an analytic bowl) — so a new
// algorithm or loss function adds rows without anyone editing the table.
// Its columns are the deployment shapes. There is one assertion: every
// history sample's unit position, point and loss, and the best point and
// loss, are Float64bits-equal to the serial run's. async-bo consumes
// completions in arrival order, so its reference in each shape is the
// in-process run forced through that shape's recorded completion order:
// the record→replay property, asserted everywhere. async-bo rows also
// check that the algorithm never had more submissions in flight than
// Calibrator.Workers.
//
// `go test` runs the whole product; `go test -short` runs a pairwise
// subset (see inShort). The package has test files only.
package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/dist/chaos"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/resilience"
	"simcal/internal/service"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// A simulator is one evaluator the table calibrates, with the spec a
// lease, a job or a cache key carries for it.
type simulator struct {
	name  string // "wf-L3", "mpi-L1", "bowl"
	spec  []byte
	space core.Space
	sim   core.Simulator // built in-process from spec
}

// bowlSpec is the analytic simulator's spec: build answers it with bowl
// rather than a simspec case study.
var bowlSpec = []byte(`{"case":"bowl"}`)

// bowl is a deterministic loss over two parameters that costs nothing to
// evaluate, so its rows measure the framework alone.
var bowl = core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
	dx, dy := p["x"]-3, p["y"]-7
	return dx*dx + dy*dy + math.Sin(p["x"]*p["y"])*0.25, nil
})

// build is every worker's, the coordinator's and the service's factory.
func build(spec []byte) (core.Simulator, error) {
	if bytes.Equal(spec, bowlSpec) {
		return bowl, nil
	}
	return simspec.BuildSimulator(spec)
}

// simulators lists the table's evaluators: each case study at its least
// detailed version — the rows vary the loss function, and five or six
// parameters keep the model-based algorithms' initial designs short —
// over a ground-truth set small enough that one evaluation takes well
// under a millisecond, once per registered loss function, and the bowl.
// The batch case study has no simspec case, so it cannot cross a lease,
// a job or a cache key; its rows arrive with that spec.
func simulators(t *testing.T) []simulator {
	wfGT := groundtruth.WFOptions{
		Apps:    []wfgen.App{wfgen.Epigenomics},
		SizeIdx: []int{1}, WorkIdx: []int{1}, FootIdx: []int{1},
		Workers: []int{2}, Reps: 2, Seed: 3,
	}
	mpiGT := groundtruth.MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.BiRandom},
		Nodes:      []int{4}, MsgSizes: []float64{1 << 10, 1 << 16},
		Rounds: 2, Reps: 2, Seed: 3,
	}
	var specs []simspec.Spec
	for _, k := range loss.AllWFKinds {
		specs = append(specs, simspec.ForWF(wfsim.LowestDetail, k, wfGT, false))
	}
	for _, k := range loss.AllMPIKinds {
		specs = append(specs, simspec.ForMPI(mpisim.LowestDetail, k, mpiGT, 2, false))
	}
	var out []simulator
	for _, sp := range specs {
		wire, err := sp.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		space, err := sp.Space()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := build(wire)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, simulator{name: sp.Case + "-" + sp.Loss, spec: wire, space: space, sim: sim})
	}
	return append(out, simulator{name: "bowl", spec: bowlSpec, sim: bowl, space: core.Space{
		{Name: "x", Kind: core.Continuous, Min: 0, Max: 10},
		{Name: "y", Kind: core.Continuous, Min: 0, Max: 10},
	}})
}

// A calibration is one row: a simulator and a registered algorithm, at
// positions i and a of their lists.
type calibration struct {
	simulator
	alg  string
	i, a int
}

// calibrations is the table: every simulator under every algorithm.
func calibrations(t *testing.T) []*calibration {
	var rows []*calibration
	for i, sim := range simulators(t) {
		for a, alg := range opt.AlgorithmNames {
			rows = append(rows, &calibration{simulator: sim, alg: alg, i: i, a: a})
		}
	}
	return rows
}

// evals is the row's budget: two batches of four past the model-based
// algorithms' initial random design of max(2·dim, 8) points, so their
// surrogates are fitted and consulted.
func (c *calibration) evals() int { return max(2*len(c.space), 8) + 8 }

var frozen = time.Unix(42, 0)

// calibrator configures the row over sim at the given width, with a
// fresh instance of its algorithm, a frozen clock and a window observer.
func (c *calibration) calibrator(t *testing.T, sim core.Simulator, workers int) *core.Calibrator {
	t.Helper()
	alg, err := opt.ByName(c.alg)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Calibrator{
		Space: c.space, Simulator: sim, Algorithm: alg,
		MaxEvaluations: c.evals(), Workers: workers, Seed: 7,
		Clock:    func() time.Time { return frozen },
		Observer: &window{Observer: core.NewObsObserver(nil, nil)},
	}
}

// window observes an asynchronous algorithm's submissions and
// consumptions — both on its driver goroutine — and keeps the most it
// had in flight at once.
type window struct {
	core.Observer
	inFlight, peak int
}

func (w *window) AsyncProposed(int, int, time.Duration) {
	w.inFlight++
	w.peak = max(w.peak, w.inFlight)
}

func (w *window) AsyncCompletionConsumed(int, int, float64, bool) { w.inFlight-- }

// A run is what a shape hands the assertion: its result, the algorithm
// instance and width that produced it, and the in-flight window it
// observed (nil where the calibrator is not the table's own).
type run struct {
	res     *core.Result
	alg     core.Algorithm
	workers int
	window  *window
}

func (c *calibration) run(t *testing.T, cal *core.Calibrator) run {
	t.Helper()
	res, err := cal.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w, _ := cal.Observer.(*window)
	return run{res: res, alg: cal.Algorithm, workers: cal.Workers, window: w}
}

// width is every shape's evaluation width but serial's.
const width = 4

// A shape is one way of deploying a calibration.
type shape struct {
	name string
	run  func(t *testing.T, c *calibration, fleets map[string]*dist.Coordinator) run
}

var shapes = []shape{
	{"serial", func(t *testing.T, c *calibration, _ map[string]*dist.Coordinator) run {
		return c.run(t, c.calibrator(t, c.sim, 1))
	}},
	{"workers-4", func(t *testing.T, c *calibration, _ map[string]*dist.Coordinator) run {
		return c.run(t, c.calibrator(t, c.sim, width))
	}},
	{"cache", cached},
	{"checkpoint", resumed},
	onFleet("loopback-1"),
	onFleet("loopback-2"),
	onFleet("loopback-3"),
	onFleet("tcp-2"),
	onFleet("chaos"),
	{"service", serviceJob},
	{"resilience", withExecutor},
}

// cached runs the row twice on one cache; the second run is answered
// entirely from it. Cache hits complete in a different order than
// simulations, so async-bo's second run replays the first's order — it
// would propose other points otherwise.
func cached(t *testing.T, c *calibration, _ map[string]*dist.Coordinator) run {
	cc := cache.New(nil)
	var r run
	for pass := 1; pass <= 2; pass++ {
		cal := c.calibrator(t, c.sim, width)
		cal.Cache, cal.CacheKey = cc, string(c.spec)
		if async, ok := cal.Algorithm.(*opt.AsyncBayesOpt); ok && pass == 2 {
			async.Replay = r.alg.(*opt.AsyncBayesOpt).CompletionOrder()
		}
		before := cc.Stats().Hits
		r = c.run(t, cal)
		if hits := cc.Stats().Hits - before; pass == 2 && hits != int64(c.evals()) {
			t.Fatalf("second cached run: %d of %d evaluations were cache hits", hits, c.evals())
		}
	}
	return r
}

// resumed journals a whole run, then cuts the journal at four places
// and resumes each cut with the full budget: after the first
// consumption; at half the budget; just before the last consumption,
// where every algorithm has an evaluation in flight (async-bo usually
// several); and half way into the line after the half-budget cut, as a
// torn write leaves it. A resumed run simulates only what its cut had
// not consumed and appends to the cut; each is checked against the
// whole run, which the table checks against serial.
func resumed(t *testing.T, c *calibration, _ map[string]*dist.Coordinator) run {
	dir := t.TempDir()
	whole := c.calibrator(t, c.sim, width)
	whole.Checkpoint = filepath.Join(dir, "whole.jsonl")
	r := c.run(t, whole)
	journal, err := os.ReadFile(whole.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	var starts, ends []int // of each consumption line
	for off := 0; off < len(journal); {
		next := off + bytes.IndexByte(journal[off:], '\n') + 1
		if bytes.HasPrefix(journal[off:], []byte(`{"consume"`)) {
			starts, ends = append(starts, off), append(ends, next)
		}
		off = next
	}
	if len(ends) != c.evals() {
		t.Fatalf("journal holds %d consumptions, want %d", len(ends), c.evals())
	}
	half := ends[len(ends)/2-1]
	afterHalf := half + bytes.IndexByte(journal[half:], '\n') + 1
	_, async := whole.Algorithm.(*opt.AsyncBayesOpt)
	for _, cut := range []struct {
		name string
		at   int
	}{
		{"first", ends[0]},
		{"half", half},
		{"in-flight", starts[len(starts)-1]},
		{"torn", half + (afterHalf-half)/2},
	} {
		path := filepath.Join(dir, cut.name+".jsonl")
		if err := os.WriteFile(path, journal[:cut.at], 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := core.LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s cut: %v", cut.name, err)
		}
		if cut.name == "in-flight" && len(snap.InFlight) == 0 {
			t.Fatalf("%s cut has nothing in flight", cut.name)
		}
		var calls atomic.Int64
		cal := c.calibrator(t, core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
			calls.Add(1)
			return c.sim.Run(ctx, p)
		}), width)
		cal.Resume, cal.Checkpoint = snap, path
		got := c.run(t, cal)
		if n, want := calls.Load(), int64(got.res.Evaluations-len(snap.Samples)); n != want {
			t.Fatalf("%s cut: resumed run simulated %d evaluations, want %d: journaled ones replay", cut.name, n, want)
		}
		c.check(t, r.res, got)
		// The resumed run appended only what its cut lacked; a batch
		// algorithm's journal is then the whole run's, byte for byte.
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if full, err := core.ReadJournal(bytes.NewReader(after)); err != nil || len(full.Samples) != c.evals() {
			t.Fatalf("%s cut: resumed journal holds %v consumptions (%v), want %d", cut.name, full, err, c.evals())
		}
		if !async && !bytes.Equal(after, journal) {
			t.Fatalf("%s cut: resumed journal differs from the whole run's", cut.name)
		}
	}
	return r
}

// onFleet leases every evaluation to the named fleet.
func onFleet(name string) shape {
	return shape{name, func(t *testing.T, c *calibration, fleets map[string]*dist.Coordinator) run {
		return c.run(t, c.calibrator(t, fleets[name].Evaluator(c.spec), width))
	}}
}

// withExecutor runs the row on the loopback-2 fleet behind the
// fault-tolerant executor, the path `simcal -listen … -eval-timeout`
// takes: with an executor attached the engine gives up RunAsync callback
// delivery, and every lease holds a goroutine inside Executor.Do.
func withExecutor(t *testing.T, c *calibration, fleets map[string]*dist.Coordinator) run {
	cal := c.calibrator(t, fleets["loopback-2"].Evaluator(c.spec), width)
	cal.Resilience = &resilience.Policy{Timeout: time.Minute, MaxAttempts: 3}
	return c.run(t, cal)
}

// serviceJob submits the row to a calibration service over HTTP and
// reads its result back from the job API.
func serviceJob(t *testing.T, c *calibration, _ map[string]*dist.Coordinator) run {
	algs := make(chan core.Algorithm, 1)
	svc, err := service.NewServer(service.Config{
		Backend: func(_ string, spec json.RawMessage) (core.Simulator, error) { return build(spec) },
		Resolve: func(json.RawMessage) (core.Space, error) { return c.space, nil },
		Algorithm: func(name string) (core.Algorithm, error) {
			alg, err := opt.ByName(name)
			algs <- alg
			return alg, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	mux := http.NewServeMux()
	svc.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	body, err := json.Marshal(service.JobRequest{
		Tenant: "conformance", Spec: c.spec, Algorithm: c.alg,
		MaxEvals: c.evals(), Seed: 7, Workers: width,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	// The followed event stream ends when the job is terminal.
	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp = get("/events?follow=1")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp = get("/result")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", resp.StatusCode)
	}
	res, err := core.ReadResult(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return run{res: res, alg: <-algs, workers: width}
}

// chaosProfile injects every fault the chaos transport has except
// partitions, whose windows are wall-clock.
const chaosProfile = "delay=0.05:1ms,truncate=0.005,corrupt=0.005,reset=0.005"

// startFleets serves the distributed shapes' coordinators, each with its
// workers connected, for the life of t.
func startFleets(t *testing.T) map[string]*dist.Coordinator {
	prof, err := chaos.ParseProfile(chaosProfile)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := chaos.New(dist.NewLoopback(), prof, 42)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	t.Cleanup(func() {
		if reg.Counter("dist.leases_dispatched").Value() > 0 && ct.Counts().Total() == 0 {
			t.Error("the chaos fleet ran leases, but its transport injected no faults")
		}
	})
	// Short cadences make eviction and session resume act at test
	// timescales; the local factory catches quarantined leases.
	beat := dist.WorkerConfig{HeartbeatEvery: 50 * time.Millisecond, HeartbeatTimeout: 500 * time.Millisecond}
	return map[string]*dist.Coordinator{
		"loopback-1": startFleet(t, dist.NewLoopback(), "", 1, dist.WorkerConfig{Capacity: 1}, dist.CoordinatorConfig{}, dist.SessionConfig{}),
		"loopback-2": startFleet(t, dist.NewLoopback(), "", 2, dist.WorkerConfig{}, dist.CoordinatorConfig{}, dist.SessionConfig{}),
		"loopback-3": startFleet(t, dist.NewLoopback(), "", 3, dist.WorkerConfig{}, dist.CoordinatorConfig{}, dist.SessionConfig{}),
		"tcp-2":      startFleet(t, dist.TCP{}, "127.0.0.1:0", 2, dist.WorkerConfig{}, dist.CoordinatorConfig{}, dist.SessionConfig{}),
		"chaos": startFleet(t, ct, "", 2, beat, dist.CoordinatorConfig{
			Registry:       reg,
			HeartbeatEvery: beat.HeartbeatEvery, HeartbeatTimeout: beat.HeartbeatTimeout,
			LocalFactory: build, DegradedGrace: time.Second,
		}, dist.SessionConfig{Resume: true, MaxDialAttempts: 1000, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}),
	}
}

// startFleet serves a coordinator on tr and connects n workers to it
// (capacity 2 unless w says otherwise), each dialling through sc.
func startFleet(t *testing.T, tr dist.Transport, addr string, n int, w dist.WorkerConfig, cc dist.CoordinatorConfig, sc dist.SessionConfig) *dist.Coordinator {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	coord := dist.NewCoordinator(cc)
	go coord.Serve(l)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		coord.Close()
		l.Close()
		cancel()
		wg.Wait()
	})
	if w.Capacity == 0 {
		w.Capacity = 2
	}
	w.Factory = build
	for i := 0; i < n; i++ {
		w.Name = fmt.Sprintf("w%d", i)
		worker, err := dist.NewWorker(w)
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed = int64(i + 1)
		wg.Add(1)
		go func(sc dist.SessionConfig) {
			defer wg.Done()
			_ = worker.RunSession(ctx, tr, l.Addr(), sc) // ends with an error when the coordinator closes
		}(sc)
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := coord.WaitForWorkers(wctx, n); err != nil {
		t.Fatal(err)
	}
	return coord
}

// inShort reports whether `go test -short` runs shape s of the row of
// simulator i and algorithm a. Shape s meets simulator i with algorithm
// (i+s) mod |algorithms|, so every shape meets every simulator and —
// there being more simulators than algorithms — every algorithm.
func inShort(i, a, s int) bool { return a == (i+s)%len(opt.AlgorithmNames) }

func TestConformance(t *testing.T) {
	fleets := startFleets(t)
	for _, c := range calibrations(t) {
		var cells []shape
		for s, sh := range shapes {
			if !testing.Short() || inShort(c.i, c.a, s) {
				cells = append(cells, sh)
			}
		}
		t.Run(c.name+"/"+c.alg, func(t *testing.T) {
			t.Parallel()
			serial := c.run(t, c.calibrator(t, c.sim, 1)).res
			for _, sh := range cells {
				t.Run(sh.name, func(t *testing.T) { c.check(t, serial, sh.run(t, c, fleets)) })
			}
		})
	}
}

// check is the table's one assertion.
func (c *calibration) check(t *testing.T, serial *core.Result, got run) {
	t.Helper()
	want := serial
	if async, ok := got.alg.(*opt.AsyncBayesOpt); ok {
		if got.window != nil && got.window.peak != got.workers {
			t.Fatalf("peak of %d submissions in flight, want Calibrator.Workers = %d", got.window.peak, got.workers)
		}
		order := async.CompletionOrder()
		if len(order) != c.evals() {
			t.Fatalf("recorded completion order has %d entries, want %d", len(order), c.evals())
		}
		cal := c.calibrator(t, c.sim, got.workers)
		cal.Algorithm.(*opt.AsyncBayesOpt).Replay = order
		want = c.run(t, cal).res
	}
	sameBits(t, got.res, want)
}

// sameBits demands Float64bits-equal trajectories. A result read back
// from a document has points but no unit positions (core.ReadResult);
// for those samples the point, which the unit position decodes to, is
// what is compared.
func sameBits(t *testing.T, got, want *core.Result) {
	t.Helper()
	if len(got.History) != len(want.History) {
		t.Fatalf("history has %d samples, want %d", len(got.History), len(want.History))
	}
	for i, w := range want.History {
		g := got.History[i]
		if g.Unit != nil {
			if len(g.Unit) != len(w.Unit) {
				t.Fatalf("sample %d: unit %v, want %v", i, g.Unit, w.Unit)
			}
			for j := range w.Unit {
				if math.Float64bits(g.Unit[j]) != math.Float64bits(w.Unit[j]) {
					t.Fatalf("sample %d: unit[%d] = %v, want %v", i, j, g.Unit[j], w.Unit[j])
				}
			}
		}
		samePoint(t, fmt.Sprintf("sample %d", i), g.Point, w.Point)
		if math.Float64bits(g.Loss) != math.Float64bits(w.Loss) {
			t.Fatalf("sample %d: loss = %v, want %v", i, g.Loss, w.Loss)
		}
	}
	samePoint(t, "best", got.Best.Point, want.Best.Point)
	if math.Float64bits(got.Best.Loss) != math.Float64bits(want.Best.Loss) {
		t.Fatalf("best loss = %v, want %v", got.Best.Loss, want.Best.Loss)
	}
}

func samePoint(t *testing.T, what string, got, want core.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: point %v, want %v", what, got, want)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: point[%s] = %v, want %v", what, k, g, w)
		}
	}
}

// TestConformanceCoversRegistries pins the table's size to the registries
// and checks that the -short subset is pairwise: every shape meets every
// simulator and every algorithm.
func TestConformanceCoversRegistries(t *testing.T) {
	rows := calibrations(t)
	sims := len(loss.AllWFKinds) + len(loss.AllMPIKinds) + 1
	if want := len(opt.AlgorithmNames) * sims; len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	seen := make(map[string]bool)
	for _, c := range rows {
		if seen[c.name+"/"+c.alg] {
			t.Fatalf("row %s/%s appears twice", c.name, c.alg)
		}
		seen[c.name+"/"+c.alg] = true
	}
	for s, sh := range shapes {
		simsMet, algsMet := make(map[string]bool), make(map[string]bool)
		for _, c := range rows {
			if inShort(c.i, c.a, s) {
				simsMet[c.name], algsMet[c.alg] = true, true
			}
		}
		if len(simsMet) != sims || len(algsMet) != len(opt.AlgorithmNames) {
			t.Errorf("-short: shape %s meets %d of %d simulators and %d of %d algorithms",
				sh.name, len(simsMet), sims, len(algsMet), len(opt.AlgorithmNames))
		}
	}
}
