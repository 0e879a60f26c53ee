package surrogate

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// predictChunk is the unit of work handed to a PredictBatch worker.
// Chunk boundaries are a pure function of the candidate count, never of
// the worker count, so scheduling cannot influence which indices land
// in which chunk — the first half of the batch-determinism argument
// (the second half is that every write is index-addressed).
const predictChunk = 64

// Reseeder is implemented by regressors whose randomness can be
// re-seeded between fits. BayesOpt reuses one Reseeder instance across
// refits — keeping any incremental fitting state (the GP's distance
// matrix and Cholesky factors) warm — instead of constructing a fresh
// surrogate every iteration.
type Reseeder interface {
	// Reseed installs the seed the next Fit call will use.
	Reseed(seed int64)
}

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

// FitStatsProvider is implemented by regressors that report fit-time
// performance counters (the GP). BayesOpt forwards these to the
// observer's SurrogateDetailObserver extension.
type FitStatsProvider interface {
	FitStats() FitStats
}

// batchWorkers is the number of goroutines batchLoop runs for n
// candidates when asked for up to workers (0 = GOMAXPROCS): never more
// than there are chunks.
func batchWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, (n+predictChunk-1)/predictChunk)
}

// batchLoop partitions [0, n) into predictChunk-sized chunks and runs
// fn over them on batchWorkers(n, workers) goroutines. Worker w owns the
// scratch value mk(w), reused across every chunk that worker processes.
// Chunks are claimed from an atomic counter, so which worker runs which
// chunk is scheduling-dependent — fn must therefore write only to
// index-addressed locations and compute chunk results independently of
// the scratch's history, which keeps the overall result bitwise
// identical to a serial sweep. A panic in fn is re-raised on the
// caller's goroutine (workerGroup).
func batchLoop[S any](n, workers int, mk func(w int) S, fn func(lo, hi int, scratch S)) {
	if n <= 0 {
		return
	}
	nchunks := (n + predictChunk - 1) / predictChunk
	workers = batchWorkers(n, workers)
	if workers <= 1 {
		scratch := mk(0)
		for c := 0; c < nchunks; c++ {
			lo := c * predictChunk
			hi := lo + predictChunk
			if hi > n {
				hi = n
			}
			fn(lo, hi, scratch)
		}
		return
	}
	var grp workerGroup
	for w := 0; w < workers; w++ {
		grp.wg.Add(1)
		go func() {
			defer grp.done()
			scratch := mk(w)
			for c := grp.claim(); c < nchunks; c = grp.claim() {
				lo := c * predictChunk
				hi := lo + predictChunk
				if hi > n {
					hi = n
				}
				fn(lo, hi, scratch)
			}
		}()
	}
	grp.wait()
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

// checkBatchArgs validates the PredictBatch output-slice contract.
func checkBatchArgs(X [][]float64, mean, std []float64) {
	if len(mean) != len(X) || len(std) != len(X) {
		panic("surrogate: PredictBatch output length mismatch")
	}
}
