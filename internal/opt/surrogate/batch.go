package surrogate

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// predictChunk is the unit of work handed to a mean-pass worker.
// Chunk boundaries are a pure function of the candidate count, never of
// the worker count, so scheduling cannot influence which indices land
// in which chunk — the first half of the batch-determinism argument
// (the second half is that every write is index-addressed).
const predictChunk = 64

// FitStats describes the work performed by a regressor's most recent
// successful Fit call (see FitStatsProvider). All counts are
// deterministic: they depend on the fit inputs, never on scheduling.
type FitStats struct {
	// Points is the number of training rows fitted.
	Points int
	// PrefixReused is the number of leading training rows whose cached
	// distance and factorization state was reused from the previous fit.
	PrefixReused int
	// Incremental reports whether any cached state was reused.
	Incremental bool
	// CholeskyRetries counts jitter escalations: grid passes that had to
	// be redone at a larger shared diagonal jitter after a factorization
	// failure.
	CholeskyRetries int
	// Jitter is the diagonal jitter shared by every hyperparameter
	// candidate the final selection compared.
	Jitter float64
	// BufferAllocs counts the n×n buffers whose backing array had to grow
	// this fit; 0 means the fit ran entirely in reused memory.
	BufferAllocs int
}

// ScoreStats counts the scoring work a regressor has done since it was
// made (see GP.ScoreStats). Both counts are deterministic: they depend
// on the pools and the selections, never on scheduling.
type ScoreStats struct {
	// Scored is the number of candidates the mean pass scored.
	Scored int
	// Solved is the number of candidates whose predictive variance the
	// variance pass solved.
	Solved int
}

// FitStatsProvider is implemented by regressors that report fit-time
// performance counters (the GP). BayesOpt forwards these to the
// observer's SurrogateDetailObserver extension.
type FitStatsProvider interface {
	FitStats() FitStats
}

// batchWorkers is the number of goroutines batchLoop runs for items
// work items when asked for up to workers (0 = GOMAXPROCS): never more
// than there are items.
func batchWorkers(items, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, items)
}

// itemRunner is the work of one batchLoop call: run does item i on
// worker w, with whatever scratch worker w owns.
type itemRunner interface {
	run(w, i int)
}

// runFunc adapts a function to an itemRunner.
type runFunc func(w, i int)

func (f runFunc) run(w, i int) { f(w, i) }

// batchLoop runs r over items 0, 1, …, items-1 on batchWorkers(items,
// workers) workers, the calling goroutine being worker 0. Items are
// claimed from grp's counter, so which worker runs which item is
// scheduling-dependent — r must therefore write only to index-addressed
// locations and compute each item independently of its scratch's
// history, which keeps the overall result bitwise identical to a serial
// sweep. A panic in r is re-raised on the caller's goroutine once every
// worker has returned (workerGroup). grp is the caller's, reset here,
// so that a caller keeping r and grp across calls allocates nothing
// but the goroutines.
func batchLoop(items, workers int, grp *workerGroup, r itemRunner) {
	workers = batchWorkers(items, workers)
	if workers <= 1 {
		for i := 0; i < items; i++ {
			r.run(0, i)
		}
		return
	}
	*grp = workerGroup{}
	grp.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go grp.work(r, w, items)
	}
	grp.work(r, 0, items)
	grp.wait()
}

// chunks is the number of predictChunk-sized chunks of n candidates,
// and chunk the bounds of the i-th.
func chunks(n int) int { return (n + predictChunk - 1) / predictChunk }

func chunk(i, n int) (lo, hi int) {
	lo = i * predictChunk
	return lo, min(lo+predictChunk, n)
}

// workerGroup is the shared state of a set of worker goroutines that
// claim work items 0, 1, 2, … from one counter. Each worker defers
// done; a panic on one is recovered there and, once every worker has
// returned, wait raises it again on the waiting goroutine (the first
// one recovered, if several panic), where the caller's own recover —
// resilience.Safely around Fit or an acquisition — can see it: a panic
// left on a worker goroutine would end the process.
type workerGroup struct {
	claimed atomic.Int32 // items claimed so far
	wg      sync.WaitGroup
	once    sync.Once
	pv      any
}

// work runs worker w: it claims items until none is left.
func (g *workerGroup) work(r itemRunner, w, items int) {
	defer g.done()
	for i := g.claim(); i < items; i = g.claim() {
		r.run(w, i)
	}
}

// claim returns the next unclaimed item.
func (g *workerGroup) claim() int { return int(g.claimed.Add(1)) - 1 }

func (g *workerGroup) done() {
	if r := recover(); r != nil {
		g.once.Do(func() { g.pv = r })
	}
	g.wg.Done()
}

func (g *workerGroup) wait() {
	g.wg.Wait()
	if g.pv != nil {
		panic(g.pv)
	}
}

// checkBatchArgs validates the PredictMean output-slice contract.
func checkBatchArgs(X [][]float64, mean, std []float64) {
	if len(mean) != len(X) || len(std) != len(X) {
		panic("surrogate: PredictMean output length mismatch")
	}
}
