package cache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"simcal/internal/obs"
)

func TestKeyQuantization(t *testing.T) {
	u := []float64{0.123456789, 0.987654321}
	if NewKey("sim", u) != NewKey("sim", []float64{0.123456789, 0.987654321}) {
		t.Error("identical positions produced different keys")
	}
	if NewKey("sim", u) == NewKey("sim2", u) {
		t.Error("different simulators share a key")
	}
	if NewKey("sim", []float64{0.25, 0.75}) == NewKey("sim", []float64{0.75, 0.25}) {
		t.Error("permuted coordinates share a key")
	}
	// The optimizers dedup at 2^-21, so any two distinct proposals differ
	// by at least that; the key must still tell them apart.
	a, b := 0.5, 0.5+1.0/(1<<21)
	if NewKey("sim", []float64{a}) == NewKey("sim", []float64{b}) {
		t.Error("points 2^-21 apart collide")
	}
	// Sub-quantum jitter collapses onto one entry.
	if NewKey("sim", []float64{a}) != NewKey("sim", []float64{a + 1e-12}) {
		t.Error("sub-quantum jitter produced a distinct key")
	}
}

// TestNewKeyBytes: NewKey is sim, a zero byte and each coordinate's
// quantum count in 8 little-endian bytes, as it was when it appended to
// a []byte and converted it — the key a cache shared by two builds must
// agree on — at any sim and position, outside the unit cube and at its
// edges too, in one allocation.
func TestNewKeyBytes(t *testing.T) {
	ref := func(sim string, u []float64) Key {
		b := make([]byte, 0, len(sim)+1+8*len(u))
		b = append(b, sim...)
		b = append(b, 0)
		for _, v := range u {
			q := int64(math.Round(v * (1 << quantumBits)))
			for s := 0; s < 8; s++ {
				b = append(b, byte(q>>(8*s)))
			}
		}
		return Key(b)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		sim := make([]byte, rng.Intn(40))
		rng.Read(sim)
		u := make([]float64, rng.Intn(12))
		for j := range u {
			switch rng.Intn(5) {
			case 0:
				u[j] = []float64{0, 1, math.Copysign(0, -1), -1, 2, 0.5 / (1 << quantumBits), 1 - 1e-17}[rng.Intn(7)]
			case 1:
				u[j] = rng.NormFloat64() * 1e6
			default:
				u[j] = rng.Float64()
			}
		}
		if got, want := NewKey(string(sim), u), ref(string(sim), u); got != want {
			t.Fatalf("NewKey(%q, %v) = %x, want %x", sim, u, got, want)
		}
	}
	u := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	if n := testing.AllocsPerRun(100, func() { _ = NewKey("wfsim/v1 loss=L1 dataset=abc", u) }); n != 1 {
		t.Errorf("NewKey makes %.0f allocations, want 1", n)
	}
}

func TestDoMemoizes(t *testing.T) {
	c := New(nil)
	var calls int
	k := NewKey("sim", []float64{0.5})
	for i := 0; i < 3; i++ {
		loss, hit, err := c.Do(context.Background(), k, func() (float64, error) {
			calls++
			return 42, nil
		})
		if err != nil || loss != 42 {
			t.Fatalf("Do #%d = (%v, %v, %v)", i, loss, hit, err)
		}
		if hit != (i > 0) {
			t.Errorf("Do #%d hit = %v", i, hit)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
}

func TestDoSingleFlight(t *testing.T) {
	c := New(nil)
	var calls atomic.Int64
	started := make(chan struct{})
	k := NewKey("sim", []float64{0.5})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]float64, waiters)
	errs := make([]error, waiters)
	go func() {
		// The first caller owns the computation and holds it open until
		// every waiter is blocked on the in-flight entry.
		c.Do(context.Background(), k, func() (float64, error) {
			close(started)
			for c.Stats().InflightWaits < waiters {
				runtime.Gosched()
			}
			calls.Add(1)
			return 7, nil
		})
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.Do(context.Background(), k, func() (float64, error) {
				calls.Add(1)
				return 7, nil
			})
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	for i := range results {
		if errs[i] != nil || results[i] != 7 {
			t.Errorf("waiter %d got (%v, %v)", i, results[i], errs[i])
		}
	}
	if st := c.Stats(); st.InflightWaits == 0 {
		t.Errorf("no in-flight waits recorded: %+v", st)
	}
}

func TestDoErrorIsNotCached(t *testing.T) {
	c := New(nil)
	k := NewKey("sim", []float64{0.5})
	boom := errors.New("ctx canceled mid-run")
	if _, _, err := c.Do(context.Background(), k, func() (float64, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed computation left %d entries", st.Entries)
	}
	// The next caller retries as a fresh miss.
	loss, hit, err := c.Do(context.Background(), k, func() (float64, error) {
		return 3, nil
	})
	if err != nil || hit || loss != 3 {
		t.Fatalf("retry = (%v, %v, %v), want fresh (3, false, nil)", loss, hit, err)
	}
}

// TestDoWaiterRetriesFailedOwner: a caller joined to a computation
// that fails is not handed the owner's error. It claims the key again
// and runs fn itself, as a miss.
func TestDoWaiterRetriesFailedOwner(t *testing.T) {
	c := New(nil)
	k := NewKey("sim", []float64{0.5})
	var calls atomic.Int64
	boom := errors.New("owner failed")
	owner := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), k, func() (float64, error) {
			calls.Add(1)
			// Fail only once the waiter has joined.
			for c.Stats().InflightWaits < 1 {
				runtime.Gosched()
			}
			return 0, boom
		})
		owner <- err
	}()
	for c.Stats().Misses < 1 {
		runtime.Gosched()
	}
	loss, hit, err := c.Do(context.Background(), k, func() (float64, error) {
		calls.Add(1)
		return 3, nil
	})
	if err != nil || hit || loss != 3 {
		t.Fatalf("waiter of a failed owner = (%v, %v, %v), want its own fresh (3, false, nil)", loss, hit, err)
	}
	if err := <-owner; !errors.Is(err, boom) {
		t.Fatalf("owner got %v, want boom", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("fn ran %d times, want 2", n)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 || st.InflightWaits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 0 hits / 2 misses / 1 in-flight wait / 1 entry", st)
	}
}

func TestDoWaiterContextExpiry(t *testing.T) {
	c := New(nil)
	k := NewKey("sim", []float64{0.5})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), k, func() (float64, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, k, func() (float64, error) { return 1, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired waiter got %v, want context.Canceled", err)
	}
}

// TestClaimSettlesEachWaiterOnce races Finish against the context
// watches of the waiters joined to its entry: every waiter is settled
// exactly once, by whichever took it off the entry, and only the ones
// Finish settled count as hits. A second settle shows as a count of 2
// or as a panic of the WaitGroup going negative.
func TestClaimSettlesEachWaiterOnce(t *testing.T) {
	c := New(nil)
	const rounds, waiters = 200, 8
	for r := 0; r < rounds; r++ {
		k := NewKey("sim", []float64{float64(r) / rounds})
		if _, claimed := c.Claim(context.Background(), k, nil); claimed != Miss {
			t.Fatalf("round %d: first claim = %v, want Miss", r, claimed)
		}
		var settled [waiters]atomic.Int64
		var hits atomic.Int64
		var wg sync.WaitGroup
		cancels := make([]context.CancelFunc, waiters)
		for i := range waiters {
			ctx, cancel := context.WithCancel(context.Background())
			cancels[i] = cancel
			wg.Add(1)
			_, claimed := c.Claim(ctx, k, func(loss float64, ok bool) {
				if settled[i].Add(1) == 1 && ok {
					hits.Add(1)
				}
				if ok && loss != float64(r) {
					t.Errorf("round %d: waiter %d settled with %v", r, i, loss)
				}
				wg.Done()
			})
			if claimed != Joined {
				t.Fatalf("round %d: claim %d = %v, want Joined", r, i, claimed)
			}
		}
		// A third of the watches fire before Finish (their leave may run
		// before or after it takes the waiters), a third race it, and a
		// third are stopped by it.
		before := c.Stats().Hits
		for i := 0; i < waiters; i += 3 {
			cancels[i]()
		}
		for i := 1; i < waiters; i += 3 {
			go cancels[i]()
		}
		c.Finish(k, float64(r), true)
		wg.Wait()
		for i := range waiters {
			cancels[i]()
			if n := settled[i].Load(); n != 1 {
				t.Fatalf("round %d: waiter %d settled %d times", r, i, n)
			}
		}
		if got := c.Stats().Hits - before; got != hits.Load() {
			t.Fatalf("round %d: %d hits counted, %d waiters settled with the loss", r, got, hits.Load())
		}
	}
	if st := c.Stats(); st.InflightWaits != rounds*waiters || st.Entries != rounds {
		t.Errorf("stats = %+v, want %d in-flight waits and %d entries", st, rounds*waiters, rounds)
	}
}

// TestClaimHitAllocatesNothing: a hit, which the calibration engine
// settles inline on its driver goroutine, costs no allocation.
func TestClaimHitAllocatesNothing(t *testing.T) {
	c := New(nil)
	k := NewKey("sim", []float64{0.5})
	c.Claim(context.Background(), k, nil)
	c.Finish(k, 2, true)
	w := func(float64, bool) { t.Error("a hit settled its waiter") }
	if n := testing.AllocsPerRun(100, func() {
		if loss, claimed := c.Claim(context.Background(), k, w); claimed != Hit || loss != 2 {
			t.Fatalf("Claim = (%v, %v), want a hit on 2", loss, claimed)
		}
	}); n != 0 {
		t.Errorf("a Claim hit allocates %v times, want 0", n)
	}
}

func TestRegistryExport(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(reg)
	k := NewKey("sim", []float64{0.25})
	c.Do(context.Background(), k, func() (float64, error) { return 1, nil })
	c.Do(context.Background(), k, func() (float64, error) { return 1, nil })
	s := reg.Snapshot()
	if s.Counters["cache.hits"] != 1 || s.Counters["cache.misses"] != 1 {
		t.Errorf("registry counters = %v", s.Counters)
	}
	if s.Gauges["cache.entries"] != 1 {
		t.Errorf("cache.entries gauge = %v", s.Gauges["cache.entries"])
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	c := New(nil)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := NewKey(fmt.Sprintf("sim%d", i%4), []float64{float64(i) / 32})
			for j := 0; j < 50; j++ {
				if _, _, err := c.Do(context.Background(), k, func() (float64, error) {
					return float64(i), nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 32 {
		t.Errorf("entries = %d, want 32", st.Entries)
	}
}

// TestEntriesCountMemoizedOnly: Stats().Entries and the cache.entries
// gauge count memoized losses, never keys in flight, and agree at every
// step: a miss adds nothing, a successful Finish adds one, a failed
// Finish changes nothing.
func TestEntriesCountMemoizedOnly(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(reg)
	check := func(what string, want int) {
		t.Helper()
		if got, gauge := c.Stats().Entries, reg.Snapshot().Gauges["cache.entries"]; got != want || gauge != float64(want) {
			t.Errorf("%s: Stats().Entries = %d, gauge = %v; want %d", what, got, gauge, want)
		}
	}
	a, b := NewKey("sim", []float64{0.25}), NewKey("sim", []float64{0.5})
	if _, claimed := c.Claim(context.Background(), a, nil); claimed != Miss {
		t.Fatal("first Claim did not miss")
	}
	check("one key in flight", 0)
	if _, claimed := c.Claim(context.Background(), b, nil); claimed != Miss {
		t.Fatal("second key did not miss")
	}
	c.Finish(a, 1, true)
	check("two keys in flight, one finished", 1)
	c.Finish(b, 0, false)
	check("after a failed Finish", 1)
}
