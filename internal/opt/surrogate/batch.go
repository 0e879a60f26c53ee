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

// batchLoop partitions [0, n) into predictChunk-sized chunks and runs
// fn over them on up to `workers` goroutines (0 = GOMAXPROCS). Each
// worker owns one scratch value built by mk, reused across every chunk
// that worker processes. Chunks are claimed from an atomic counter, so
// which worker runs which chunk is scheduling-dependent — fn must
// therefore write only to index-addressed locations and compute chunk
// results independently of the scratch's history, which keeps the
// overall result bitwise identical to a serial sweep.
func batchLoop[S any](n, workers int, mk func() S, fn func(lo, hi int, scratch S)) {
	if n <= 0 {
		return
	}
	nchunks := (n + predictChunk - 1) / predictChunk
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		scratch := mk()
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
	var next int32 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := mk()
			for {
				c := int(atomic.AddInt32(&next, 1))
				if c >= nchunks {
					return
				}
				lo := c * predictChunk
				hi := lo + predictChunk
				if hi > n {
					hi = n
				}
				fn(lo, hi, scratch)
			}
		}()
	}
	wg.Wait()
}

// checkBatchArgs validates the PredictBatch output-slice contract.
func checkBatchArgs(X [][]float64, mean, std []float64) {
	if len(mean) != len(X) || len(std) != len(X) {
		panic("surrogate: PredictBatch output length mismatch")
	}
}
