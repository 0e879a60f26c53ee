package mpi

import (
	"fmt"
	"math"
	"strconv"

	"simcal/internal/stats"
)

// Benchmark identifies one of the IMB kernels the ground truth covers.
type Benchmark string

// The four IMB benchmarks of the paper's ground truth.
const (
	PingPong Benchmark = "PingPong"
	PingPing Benchmark = "PingPing"
	BiRandom Benchmark = "BiRandom"
	Stencil  Benchmark = "Stencil"
)

// AllBenchmarks lists the four kernels.
var AllBenchmarks = []Benchmark{PingPong, PingPing, BiRandom, Stencil}

// RunSpec parameterizes one benchmark execution.
type RunSpec struct {
	Benchmark Benchmark
	// MsgBytes is the message size (the paper sweeps 2^10 … 2^22).
	MsgBytes float64
	// Rounds is the number of exchange rounds (default 4).
	Rounds int
	// Seed drives the BiRandom pairing (deterministic per seed).
	Seed int64
}

// Run executes the benchmark on the fabric and returns the aggregate
// data transfer rate in bytes/s: total payload moved divided by the
// simulated execution time.
//
// The benchmark's message schedule depends on neither the message size
// nor the fabric's configuration, so it is compiled on first use and kept
// by the fabric (one program per benchmark and round count — and, for
// BiRandom, seed): running it again allocates nothing. A fabric that has
// simulated before must be Configured first; its results are then those
// of a fresh fabric.
func Run(f *Fabric, spec RunSpec) (float64, error) {
	if spec.MsgBytes <= 0 {
		return 0, fmt.Errorf("mpi: non-positive message size")
	}
	rounds := spec.Rounds
	if rounds <= 0 {
		rounds = 4
	}
	if f.Ranks() < 2 {
		return 0, fmt.Errorf("mpi: need at least 2 ranks")
	}
	key := programKey{bench: spec.Benchmark, rounds: rounds}
	if spec.Benchmark == BiRandom {
		key.seed = spec.Seed
	}
	p := f.programs[key]
	if p == nil {
		var err error
		if p, err = f.compile(key); err != nil {
			return 0, err
		}
		f.programs[key] = p
	}
	p.msg, p.band = spec.MsgBytes, f.cfg.Protocol.band(spec.MsgBytes)
	start := f.ps.Engine.Now()
	f.ps.System.Batch(p.begin)
	if _, err := f.ps.Engine.Run(p.budget); err != nil {
		return 0, fmt.Errorf("mpi: %s: %w", spec.Benchmark, err)
	}
	elapsed := f.ps.Engine.Now() - start
	if elapsed <= 0 {
		return 0, fmt.Errorf("mpi: %s: zero elapsed time", spec.Benchmark)
	}
	return float64(p.messages) * spec.MsgBytes / elapsed, nil
}

func eventBudget(ranks, rounds int) int {
	return 100*ranks*rounds + 100000
}

// programKey is everything a benchmark's message schedule depends on
// besides the fabric's shape.
type programKey struct {
	bench  Benchmark
	rounds int
	seed   int64 // BiRandom only
}

// program is a compiled benchmark: independent chains of steps, a step
// being the messages sent together, the next step of a chain starting
// when all of them have arrived. Activity names are part of the
// simulation's semantics — the flow kernel fires simultaneous completions
// in name order — so they are fixed here, once.
type program struct {
	f        *Fabric
	chains   []chain
	messages int    // across all chains and steps
	budget   int    // event bound per run
	begin    func() // p.start

	// Per-run state.
	msg  float64
	band int
}

type chain struct {
	p     *program
	steps [][]message

	// Per-run state.
	k           int // current step
	outstanding int // its messages still in flight

	// The kernel's entry points into the chain, bound once.
	issue, done func()
}

type message struct {
	name string
	path *path // nil for a rank messaging itself
}

func (p *program) start() {
	for i := range p.chains {
		c := &p.chains[i]
		c.k = 0
		c.issueStep()
	}
}

func (c *chain) issueStep() {
	p := c.p
	step := c.steps[c.k]
	c.outstanding = len(step)
	for i := range step {
		if m := &step[i]; m.path != nil {
			p.f.start(m.path, m.name, p.msg, p.band, c.done)
		} else {
			p.f.ps.Engine.After(0, c.done)
		}
	}
}

func (c *chain) messageDone() {
	if c.outstanding--; c.outstanding > 0 {
		return
	}
	if c.k++; c.k < len(c.steps) {
		c.p.f.ps.System.Batch(c.issue)
	}
}

// compile lays out the benchmark's chains in the order the kernels issue
// them: chains in start order, a step's messages in send order.
func (f *Fabric) compile(key programKey) (*program, error) {
	n, rounds := f.Ranks(), key.rounds
	b := programBuilder{f: f, paths: make(pathTable)}
	switch key.bench {
	case PingPong:
		// Rank i and rank i+n/2 bounce a message back and forth `rounds`
		// times; pairs progress independently, as in IMB-P2P.
		b.expect(n / 2 * 2 * rounds)
		for i, half := 0, n/2; i < half; i++ {
			b.chain()
			for k := 0; k < 2*rounds; k++ {
				src, dst := i, i+half
				if k%2 == 1 {
					src, dst = dst, src
				}
				b.step()
				b.message(src, dst, "pp", "", i, i+half, k)
			}
		}
	case PingPing:
		// Both partners of each pair send simultaneously each round; a
		// pair's next round starts when both of its messages arrive.
		b.expect(n / 2 * 2 * rounds)
		for i, half := 0, n/2; i < half; i++ {
			b.chain()
			for k := 0; k < rounds; k++ {
				b.step()
				b.message(i, i+half, "pi", "-f", i, i+half, k)
				b.message(i+half, i, "pi", "-r", i, i+half, k)
			}
		}
	case BiRandom:
		// A fresh random pairing every round; each pair exchanges
		// bidirectionally, with a global barrier between rounds.
		rng := stats.NewRNG(key.seed)
		b.expect(n / 2 * 2 * rounds)
		b.chain()
		for k := 0; k < rounds; k++ {
			perm := rng.Perm(n)
			b.step()
			for p := 0; p < n/2; p++ {
				x, y := perm[2*p], perm[2*p+1]
				b.message(x, y, "br", "-f", k, p)
				b.message(y, x, "br", "-r", k, p)
			}
		}
	case Stencil:
		// Ranks form a 2D torus and exchange with their four neighbors
		// each round, with a global barrier between rounds — the IMB-P2P
		// Stencil2D pattern. Ranks beyond the grid sit out.
		rows := gridRows(n)
		cols := n / rows
		b.expect(4 * rows * cols * rounds)
		b.chain()
		for k := 0; k < rounds; k++ {
			b.step()
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					self := r*cols + c
					neighbors := [4]int{
						((r+1)%rows)*cols + c,
						((r-1+rows)%rows)*cols + c,
						r*cols + (c+1)%cols,
						r*cols + (c-1+cols)%cols,
					}
					for d, nb := range neighbors {
						b.message(self, nb, "st", "", k, self, d)
					}
				}
			}
		}
	default:
		return nil, fmt.Errorf("mpi: unknown benchmark %q", key.bench)
	}
	p := b.program()
	p.budget = eventBudget(n, rounds)
	return p, nil
}

// programBuilder accumulates a program flat — messages, with the step
// and chain boundaries as offsets — so that all names share one backing
// string and all steps one message array.
type programBuilder struct {
	f       *Fabric
	paths   pathTable
	msgs    []message
	names   []byte
	nameEnd []int // per message, into names
	stepAt  []int // where each step begins, in msgs
	chainAt []int // where each chain begins, in stepAt
}

// expect sizes the builder for a program of n messages.
func (b *programBuilder) expect(n int) {
	b.msgs = make([]message, 0, n)
	b.nameEnd = make([]int, 0, n)
	b.names = make([]byte, 0, 16*n)
}

// chain starts a new chain; step starts a new step of the current chain.
func (b *programBuilder) chain() { b.chainAt = append(b.chainAt, len(b.stepAt)) }
func (b *programBuilder) step()  { b.stepAt = append(b.stepAt, len(b.msgs)) }

// message adds a message to the current step, named prefix-id-id…suffix.
func (b *programBuilder) message(src, dst int, prefix, suffix string, ids ...int) {
	b.names = append(b.names, prefix...)
	for _, id := range ids {
		b.names = append(b.names, '-')
		b.names = strconv.AppendInt(b.names, int64(id), 10)
	}
	b.names = append(b.names, suffix...)
	b.nameEnd = append(b.nameEnd, len(b.names))
	var m message
	if src != dst {
		m.path = b.f.pathBetween(b.paths, src, dst)
	}
	b.msgs = append(b.msgs, m)
}

func (b *programBuilder) program() *program {
	names, from := string(b.names), 0
	for i, end := range b.nameEnd {
		b.msgs[i].name = names[from:end]
		from = end
	}
	p := &program{f: b.f, chains: make([]chain, len(b.chainAt)), messages: len(b.msgs)}
	p.begin = p.start
	// A step ends where the next begins, and so does a chain.
	stepAt := append(b.stepAt, len(b.msgs))
	chainAt := append(b.chainAt, len(b.stepAt))
	for ci := range p.chains {
		c := &p.chains[ci]
		c.p = p
		c.issue, c.done = c.issueStep, c.messageDone
		c.steps = make([][]message, 0, chainAt[ci+1]-chainAt[ci])
		for si := chainAt[ci]; si < chainAt[ci+1]; si++ {
			c.steps = append(c.steps, b.msgs[stepAt[si]:stepAt[si+1]])
		}
	}
	return p
}

// gridRows returns the largest divisor of n that is ≤ √n, giving the
// most square 2D factorization.
func gridRows(n int) int {
	best := 1
	for r := 1; r <= int(math.Sqrt(float64(n))); r++ {
		if n%r == 0 {
			best = r
		}
	}
	return best
}
