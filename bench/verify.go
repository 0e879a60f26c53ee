package main

import (
	"context"
	"crypto/sha256"
	_ "embed" // golden.json
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"simcal/internal/core"
)

// fingerprint identifies a repetition's outcome bit for bit.
type fingerprint struct {
	Evals int `json:"evals"`
	// BestLossBits is the IEEE-754 bit pattern of the lowest loss found.
	BestLossBits string `json:"best_loss_bits"`
	// HistoryHash covers every sample of every result in order: the
	// unit-cube position (absent from results fetched over HTTP), the
	// decoded point in Space order, and the loss, as bit patterns.
	HistoryHash string `json:"history_hash"`
}

func fingerprintOf(space core.Space, results []*core.Result) fingerprint {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	fp := fingerprint{}
	best := math.Inf(1)
	for _, res := range results {
		fp.Evals += res.Evaluations
		best = math.Min(best, res.Best.Loss)
		for _, s := range res.History {
			for _, u := range s.Unit {
				put(u)
			}
			for _, spec := range space {
				put(s.Point[spec.Name])
			}
			put(s.Loss)
		}
	}
	fp.BestLossBits = fmt.Sprintf("0x%016x", math.Float64bits(best))
	fp.HistoryHash = hex.EncodeToString(h.Sum(nil)[:16])
	return fp
}

// goldenJSON is bench/golden.json: workload → seed → fingerprint, for
// the deterministic workloads at scale 1 and seeds 1 and 2. The bits
// were recorded on linux/amd64; an architecture that fuses multiply-adds
// may legitimately differ.
//
//go:embed golden.json
var goldenJSON []byte

type goldenDoc map[string]map[string]fingerprint

func loadGolden() (goldenDoc, error) {
	var g goldenDoc
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: golden.json: %w", err)
	}
	return g, nil
}

var goldenSeeds = []int64{1, 2}

// checkReps is the correctness gate of one workload run: it returns one
// message per mismatch. Every repetition must have spent exactly its
// budget and left no lease requeued; deterministic workloads must
// repeat bit for bit and match the golden record where one exists
// (scale 1, seeds 1 and 2); the workload's own verify adds the checks
// only it can make (reference runs, async invariants).
func checkReps(ctx context.Context, w workload, inst instance, seed int64, scale float64, reps []*repResult) ([]string, error) {
	var bad []string
	space := inst.space()
	var first fingerprint
	for i, r := range reps {
		if got := r.evals(); got != r.budget {
			bad = append(bad, fmt.Sprintf("rep %d: %d evaluations, budget %d", i, got, r.budget))
		}
		if r.requeues != 0 {
			bad = append(bad, fmt.Sprintf("rep %d: %d leases requeued", i, r.requeues))
		}
		if !w.deterministic {
			continue
		}
		fp := fingerprintOf(space, r.results)
		if i == 0 {
			first = fp
		} else if fp != first {
			bad = append(bad, fmt.Sprintf("rep %d differs from rep 0: %+v vs %+v", i, fp, first))
		}
	}
	hasGolden := false
	if w.deterministic && scale == 1 {
		golden, err := loadGolden()
		if err != nil {
			return nil, err
		}
		if want, ok := golden[w.name][strconv.FormatInt(seed, 10)]; ok {
			hasGolden = true
			if first != want {
				bad = append(bad, fmt.Sprintf("golden mismatch: got %+v, want %+v", first, want))
			}
		}
	}
	more, err := inst.verify(ctx, reps[len(reps)-1], hasGolden)
	return append(bad, more...), err
}

// sameTrajectory compares two results sample by sample, bit by bit, on
// what both carry: the decoded point and the loss.
func sameTrajectory(space core.Space, got, want *core.Result) error {
	if len(got.History) != len(want.History) {
		return fmt.Errorf("history length %d, want %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		g, w := got.History[i], want.History[i]
		for _, spec := range space {
			if math.Float64bits(g.Point[spec.Name]) != math.Float64bits(w.Point[spec.Name]) {
				return fmt.Errorf("sample %d: %s = %v, want %v", i, spec.Name, g.Point[spec.Name], w.Point[spec.Name])
			}
		}
		if math.Float64bits(g.Loss) != math.Float64bits(w.Loss) {
			return fmt.Errorf("sample %d: loss %v, want %v", i, g.Loss, w.Loss)
		}
	}
	return nil
}

// realLosses re-evaluates every sample of res on sim, two at a time,
// and reports the samples whose recorded loss is not what the simulator
// returns for their point — a constant-liar fantasy value that leaked
// into history would be one.
func realLosses(ctx context.Context, sim core.Simulator, res *core.Result) []string {
	var mu sync.Mutex
	var bad []string
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				s := res.History[i]
				loss, err := sim.Run(ctx, s.Point)
				if err != nil || math.Float64bits(loss) != math.Float64bits(s.Loss) {
					mu.Lock()
					bad = append(bad, fmt.Sprintf("sample %d: recorded loss %v, simulator returns %v (err %v)", i, s.Loss, loss, err))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range res.History {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return bad
}

// asyncInvariants checks a completion order: exactly the budgeted
// evaluations, each submission sequence number consumed once.
func asyncInvariants(order []int, budget int) []string {
	var bad []string
	if len(order) != budget {
		bad = append(bad, fmt.Sprintf("completion order has %d entries, budget %d", len(order), budget))
	}
	seen := make(map[int]bool, len(order))
	for _, seq := range order {
		if seq < 0 || seq >= budget {
			bad = append(bad, fmt.Sprintf("seq %d outside the %d submissions", seq, budget))
		}
		if seen[seq] {
			bad = append(bad, fmt.Sprintf("seq %d consumed twice", seq))
		}
		seen[seq] = true
	}
	return bad
}
