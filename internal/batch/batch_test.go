package batch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"simcal/internal/stats"
)

// plainCfg returns a noiseless configuration for a cluster of procs.
func plainCfg(procs int) Config {
	return Config{Procs: procs, SpeedScale: 1}
}

func TestSingleJob(t *testing.T) {
	jobs := []Job{{ID: 1, Submit: 10, Runtime: 100, Requested: 200, Procs: 4}}
	res, err := Simulate(FCFS, plainCfg(8), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Waits[1] != 0 {
		t.Errorf("wait = %v, want 0", res.Waits[1])
	}
	if res.Starts[1] != 10 || res.Ends[1] != 110 {
		t.Errorf("start/end = %v/%v, want 10/110", res.Starts[1], res.Ends[1])
	}
	if res.Makespan != 110 {
		t.Errorf("makespan = %v, want 110", res.Makespan)
	}
}

func TestFCFSQueuesWhenFull(t *testing.T) {
	jobs := []Job{
		{ID: 1, Submit: 0, Runtime: 100, Requested: 100, Procs: 8},
		{ID: 2, Submit: 1, Runtime: 50, Requested: 50, Procs: 4},
	}
	res, err := Simulate(FCFS, plainCfg(8), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[2] != 100 {
		t.Errorf("job 2 started at %v, want 100 (after job 1)", res.Starts[2])
	}
	if res.Waits[2] != 99 {
		t.Errorf("job 2 wait = %v, want 99", res.Waits[2])
	}
}

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	// Job 2 needs the whole machine; job 3 would fit beside job 1, but
	// strict FCFS must not let it pass job 2.
	jobs := []Job{
		{ID: 1, Submit: 0, Runtime: 100, Requested: 100, Procs: 4},
		{ID: 2, Submit: 1, Runtime: 10, Requested: 10, Procs: 8},
		{ID: 3, Submit: 2, Runtime: 10, Requested: 10, Procs: 2},
	}
	res, err := Simulate(FCFS, plainCfg(8), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[3] < res.Starts[2] {
		t.Errorf("FCFS let job 3 (start %v) pass job 2 (start %v)", res.Starts[3], res.Starts[2])
	}
}

func TestEASYBackfillsShortJob(t *testing.T) {
	// Same workload: EASY backfills job 3 beside job 1 because it ends
	// (t=12) before job 2's reservation (t=100).
	jobs := []Job{
		{ID: 1, Submit: 0, Runtime: 100, Requested: 100, Procs: 4},
		{ID: 2, Submit: 1, Runtime: 10, Requested: 10, Procs: 8},
		{ID: 3, Submit: 2, Runtime: 10, Requested: 10, Procs: 2},
	}
	res, err := Simulate(EASY, plainCfg(8), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[3] != 2 {
		t.Errorf("EASY should backfill job 3 at submit (t=2), started at %v", res.Starts[3])
	}
	// And the head job must not be delayed: job 2 starts when job 1 ends.
	if res.Starts[2] != 100 {
		t.Errorf("job 2 started at %v, want 100", res.Starts[2])
	}
}

func TestEASYDoesNotDelayReservation(t *testing.T) {
	// A long backfill candidate that would overrun the reservation and
	// does not fit beside it must wait.
	jobs := []Job{
		{ID: 1, Submit: 0, Runtime: 100, Requested: 100, Procs: 4},
		{ID: 2, Submit: 1, Runtime: 10, Requested: 10, Procs: 8},
		{ID: 3, Submit: 2, Runtime: 500, Requested: 500, Procs: 6},
	}
	res, err := Simulate(EASY, plainCfg(8), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[2] != 100 {
		t.Errorf("reservation violated: job 2 started at %v, want 100", res.Starts[2])
	}
	if res.Starts[3] < res.Ends[2] {
		t.Errorf("job 3 started at %v before job 2 finished at %v", res.Starts[3], res.Ends[2])
	}
}

func TestEASYBackfillsBesideReservation(t *testing.T) {
	// Job 3 is long but uses few processors: it fits beside the head's
	// future allocation (8-proc machine: job2 needs 6, leaving 2).
	jobs := []Job{
		{ID: 1, Submit: 0, Runtime: 100, Requested: 100, Procs: 4},
		{ID: 2, Submit: 1, Runtime: 10, Requested: 10, Procs: 6},
		{ID: 3, Submit: 2, Runtime: 500, Requested: 500, Procs: 2},
	}
	res, err := Simulate(EASY, plainCfg(8), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[3] != 2 {
		t.Errorf("job 3 should backfill beside the reservation at t=2, got %v", res.Starts[3])
	}
	if res.Starts[2] != 100 {
		t.Errorf("job 2 start %v, want 100", res.Starts[2])
	}
}

func TestSpeedScaleShortensRuntimes(t *testing.T) {
	jobs := []Job{{ID: 1, Submit: 0, Runtime: 100, Requested: 100, Procs: 1}}
	cfg := plainCfg(4)
	cfg.SpeedScale = 2
	res, err := Simulate(FCFS, cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ends[1] != 50 {
		t.Errorf("end = %v, want 50 at 2x speed", res.Ends[1])
	}
}

func TestStartupOverheadAdds(t *testing.T) {
	jobs := []Job{{ID: 1, Submit: 0, Runtime: 100, Requested: 100, Procs: 1}}
	cfg := plainCfg(4)
	cfg.StartupOverhead = 25
	res, err := Simulate(FCFS, cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ends[1] != 125 {
		t.Errorf("end = %v, want 125 with overhead", res.Ends[1])
	}
}

func TestSchedIntervalQuantizesStarts(t *testing.T) {
	jobs := []Job{{ID: 1, Submit: 7, Runtime: 10, Requested: 10, Procs: 1}}
	cfg := plainCfg(4)
	cfg.SchedInterval = 30
	res, err := Simulate(FCFS, cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[1] != 30 {
		t.Errorf("start = %v, want 30 (next scheduling cycle)", res.Starts[1])
	}
}

func TestBoundedSlowdown(t *testing.T) {
	jobs := []Job{
		{ID: 1, Submit: 0, Runtime: 100, Requested: 100, Procs: 4},
		{ID: 2, Submit: 0, Runtime: 100, Requested: 100, Procs: 4},
		{ID: 3, Submit: 0, Runtime: 100, Requested: 100, Procs: 4},
	}
	res, err := Simulate(FCFS, plainCfg(4), jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Job 3 waits 200s then runs 100s → slowdown 3.
	if got := res.BoundedSlowdown(jobs[2]); math.Abs(got-3) > 1e-9 {
		t.Errorf("bounded slowdown = %v, want 3", got)
	}
	if got := res.BoundedSlowdown(jobs[0]); got != 1 {
		t.Errorf("no-wait slowdown = %v, want 1", got)
	}
}

func TestSimulateRejectsBadInputs(t *testing.T) {
	good := []Job{{ID: 1, Submit: 0, Runtime: 10, Requested: 10, Procs: 1}}
	if _, err := Simulate(FCFS, Config{Procs: 0, SpeedScale: 1}, good); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := Simulate(FCFS, Config{Procs: 4, SpeedScale: 0}, good); err == nil {
		t.Error("zero speed accepted")
	}
	bad := []Job{{ID: 1, Submit: 0, Runtime: 10, Requested: 5, Procs: 1}}
	if _, err := Simulate(FCFS, plainCfg(4), bad); err == nil {
		t.Error("requested < runtime accepted")
	}
	huge := []Job{{ID: 1, Submit: 0, Runtime: 10, Requested: 10, Procs: 16}}
	if _, err := Simulate(FCFS, plainCfg(4), huge); err == nil {
		t.Error("oversized job accepted")
	}
}

// Property: EASY never delays any job past its FCFS start + epsilon...
// that is not true in general, but EASY must never delay the *makespan*
// beyond FCFS for identical workloads? Also not guaranteed. What EASY
// does guarantee: the queue head's start time never exceeds its FCFS
// start. We check a weaker, always-true invariant instead: every job
// starts at or after submission and capacity is never exceeded.
func TestCapacityNeverExceededProperty(t *testing.T) {
	f := func(seed int64, policyBit bool) bool {
		spec := WorkloadSpec{Jobs: 40, Procs: 32, ArrivalRate: 0.02, Seed: seed}
		jobs := GenerateWorkload(spec)
		policy := FCFS
		if policyBit {
			policy = EASY
		}
		res, err := Simulate(policy, plainCfg(spec.Procs), jobs)
		if err != nil {
			return false
		}
		// Sweep events to check instantaneous capacity.
		type ev struct {
			t     float64
			delta int
		}
		var evs []ev
		for _, j := range jobs {
			if res.Starts[j.ID] < j.Submit {
				return false
			}
			evs = append(evs, ev{res.Starts[j.ID], j.Procs}, ev{res.Ends[j.ID], -j.Procs})
		}
		// Sort by time, ends before starts at equal times.
		for i := 1; i < len(evs); i++ {
			for k := i; k > 0 && (evs[k].t < evs[k-1].t || (evs[k].t == evs[k-1].t && evs[k].delta < evs[k-1].delta)); k-- {
				evs[k], evs[k-1] = evs[k-1], evs[k]
			}
		}
		used := 0
		for _, e := range evs {
			used += e.delta
			if used > spec.Procs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: EASY's mean wait does not exceed FCFS's mean wait on the same
// workload (backfilling only ever uses otherwise-idle processors). It is
// statistical, not an invariant: about one random log in a thousand
// waits longer under EASY (seed 8548731814255864949 is one), so the
// sample of logs is fixed rather than drawn afresh on every run.
func TestEASYImprovesMeanWaitProperty(t *testing.T) {
	f := func(seed int64) bool {
		spec := WorkloadSpec{Jobs: 60, Procs: 32, ArrivalRate: 0.05, Seed: seed}
		jobs := GenerateWorkload(spec)
		fc, err := Simulate(FCFS, plainCfg(spec.Procs), jobs)
		if err != nil {
			return false
		}
		ez, err := Simulate(EASY, plainCfg(spec.Procs), jobs)
		if err != nil {
			return false
		}
		var fw, ew float64
		for _, j := range jobs {
			fw += fc.Waits[j.ID]
			ew += ez.Waits[j.ID]
		}
		// EASY may reshuffle individual jobs, but across a whole log it
		// must not be slower in aggregate by more than a hair.
		return ew <= fw*1.01+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicWithoutNoise(t *testing.T) {
	spec := WorkloadSpec{Jobs: 50, Procs: 16, ArrivalRate: 0.05, Seed: 3}
	jobs := GenerateWorkload(spec)
	a, err := Simulate(EASY, plainCfg(16), jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(EASY, plainCfg(16), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if a.Starts[j.ID] != b.Starts[j.ID] {
			t.Fatal("nondeterministic schedule")
		}
	}
}

func TestNoiseProducesVariance(t *testing.T) {
	spec := WorkloadSpec{Jobs: 30, Procs: 16, ArrivalRate: 0.05, Seed: 4}
	jobs := GenerateWorkload(spec)
	var spans []float64
	for seed := int64(0); seed < 8; seed++ {
		cfg := plainCfg(16)
		cfg.StartupOverhead = 10
		cfg.Noise = &NoiseModel{Seed: seed, RuntimeSpread: 0.05, OverheadSpread: 0.2}
		res, err := Simulate(EASY, cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, res.Makespan)
	}
	if stats.StdDev(spans) == 0 {
		t.Error("noise produced no makespan variance")
	}
}
