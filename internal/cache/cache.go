// Package cache implements a content-addressed, single-flight
// memoization layer for loss evaluations. Calibration searches revisit
// points constantly — GRID re-enumerates nested lattices, GRAD re-probes
// around the incumbent, BO proposes near-duplicates from its acquisition,
// and restarted or repeated-seed runs replay whole trajectories — and
// every revisit of a deterministic simulator is a full simulation wasted.
// A Cache shared across calibrations keys each evaluation by a simulator
// identity string plus the quantized unit-cube position and runs the
// simulator at most once per key: concurrent workers asking for the same
// in-flight point share the one running simulation (duplicate
// suppression, à la golang.org/x/sync/singleflight), and later callers
// get the memoized loss back immediately. Claim and Finish do this
// without blocking anyone — a caller that joins an in-flight point is
// called back when it settles — and Do is their blocking form.
//
// The cache stores only the loss value. Budget accounting, history
// recording, and elapsed-time stamping stay with the caller
// (core.Problem.Evaluate), so a cache hit yields the original loss but
// its own completion time — exactly what loss-vs-time curves need.
package cache

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"

	"simcal/internal/obs"
)

// quantumBits is the number of fractional bits kept when quantizing a
// unit coordinate into a key: positions closer than 2^-26 ≈ 1.5e-8 in
// every dimension share an entry. Identical float64 positions always map
// to the same key; distinct search proposals virtually never collide at
// this resolution (the optimizers' own dedup works at 2^-21).
const quantumBits = 26

// Key identifies one loss evaluation: a simulator identity string plus a
// quantized unit-cube position.
type Key string

// NewKey builds the cache key for the simulator identified by sim
// evaluated at unit-cube position u. The sim string must uniquely
// identify the (simulator version, loss function, dataset) configuration
// among every calibration sharing the cache — two configurations sharing
// an identity would silently exchange loss values. The key is sim, a
// zero byte and each coordinate's quantum count as 8 little-endian
// bytes, built in its one allocation.
func NewKey(sim string, u []float64) Key {
	var b strings.Builder
	b.Grow(len(sim) + 1 + 8*len(u))
	b.WriteString(sim)
	b.WriteByte(0)
	for _, v := range u {
		q := int64(math.Round(v * (1 << quantumBits)))
		for s := 0; s < 64; s += 8 {
			b.WriteByte(byte(q >> s))
		}
	}
	return Key(b.String())
}

// entry is one memoized (done) or in-flight evaluation; an in-flight
// entry holds the claims that joined it.
type entry struct {
	loss    float64
	done    bool
	waiters []*waiter
}

// waiter is one joined claim: its callback and the stop of its
// context watch.
type waiter struct {
	settle func(loss float64, ok bool)
	stop   func() bool
}

// Claimed is what Claim found for a key.
type Claimed int

const (
	// Miss: the caller owns a new in-flight entry and must Finish it.
	Miss Claimed = iota
	// Hit: the key's loss is memoized and Claim returned it.
	Hit
	// Joined: the key is in flight; the waiter will be settled.
	Joined
)

// Cache is a content-addressed, single-flight loss-evaluation cache,
// safe for concurrent use by any number of calibrations.
type Cache struct {
	mu       sync.Mutex
	entries  map[Key]*entry // memoized and in-flight
	memoized int            // the entries that are done

	hits         *obs.Counter
	misses       *obs.Counter
	shared       *obs.Counter
	entriesGauge *obs.Gauge
}

// New returns an empty cache. When reg is non-nil the cache exports its
// counters there as cache.hits, cache.misses, cache.inflight_waits, and
// the cache.entries gauge; a nil registry keeps the counters private
// (still readable through Stats).
func New(reg *obs.Registry) *Cache {
	c := &Cache{entries: make(map[Key]*entry)}
	if reg != nil {
		c.hits = reg.Counter("cache.hits")
		c.misses = reg.Counter("cache.misses")
		c.shared = reg.Counter("cache.inflight_waits")
		c.entriesGauge = reg.Gauge("cache.entries")
	} else {
		c.hits, c.misses, c.shared = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
		c.entriesGauge = &obs.Gauge{}
	}
	return c
}

// Stats is a point-in-time summary of the cache.
type Stats struct {
	// Hits counts claims answered from a finished entry, including
	// joined claims whose owner memoized its loss.
	Hits int64
	// Misses counts claims that owned the computation themselves.
	Misses int64
	// InflightWaits counts the claims that joined an in-flight
	// computation rather than finding a finished entry.
	InflightWaits int64
	// Entries is the number of memoized losses currently stored.
	Entries int
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := c.memoized
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		InflightWaits: c.shared.Value(),
		Entries:       n,
	}
}

// Claim looks key up without blocking. On a Hit it returns the
// memoized loss. When key is in flight, w joins the entry and Claim
// returns Joined: w is then settled exactly once, with ok and the loss
// when the owner memoizes it, or with !ok when the owner fails (its
// entry is dropped) or ctx ends first, whichever takes w off the entry.
// w runs on the goroutine that settles it and must not block. Otherwise
// Claim returns Miss: the caller owns a new in-flight entry and must
// Finish it.
func (c *Cache) Claim(ctx context.Context, key Key, w func(loss float64, ok bool)) (float64, Claimed) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	switch {
	case !ok:
		c.entries[key] = &entry{}
		c.misses.Inc()
		return 0, Miss
	case e.done:
		c.hits.Inc()
		return e.loss, Hit
	}
	c.shared.Inc()
	wt := &waiter{settle: w}
	e.waiters = append(e.waiters, wt)
	// Registered under the lock, so stop is set before Finish can read
	// it; on a dead ctx the watch runs at once, and waits for the lock.
	wt.stop = context.AfterFunc(ctx, func() { c.leave(e, wt) })
	return 0, Joined
}

// leave settles a waiter whose context ended, unless Finish took it
// off the entry first.
func (c *Cache) leave(e *entry, w *waiter) {
	c.mu.Lock()
	i := slices.Index(e.waiters, w)
	if i >= 0 {
		e.waiters = slices.Delete(e.waiters, i, i+1)
	}
	c.mu.Unlock()
	if i >= 0 {
		w.settle(0, false)
	}
}

// Finish ends the in-flight entry a Miss created: ok memoizes loss, !ok
// drops the entry so that the next Claim of key misses. It then settles
// every waiter of the entry, each after stopping its context watch,
// outside the lock.
func (c *Cache) Finish(key Key, loss float64, ok bool) {
	c.mu.Lock()
	e := c.entries[key]
	ws := e.waiters
	e.waiters = nil
	if ok {
		e.loss, e.done = loss, true
		c.memoized++
		c.entriesGauge.Set(float64(c.memoized))
	} else {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(int64(len(ws)))
	}
	for _, w := range ws {
		w.stop()
		w.settle(loss, ok)
	}
}

// Do is the blocking form of Claim and Finish: it returns the memoized
// loss for key, computing it with fn on first use. Concurrent calls for
// the same key share one fn invocation; the extra callers block until
// it finishes (or their ctx expires) and report hit=true, as do all
// later calls. When fn returns an error the entry is dropped and only
// Do's own caller receives the error: a caller that was waiting on it
// claims the key again and runs fn itself (hit=false) unless another
// caller got there first. So context-canceled evaluations never poison
// the cache. Deterministic simulator failures should be encoded by fn
// as a loss value (+Inf) with a nil error so they are memoized like any
// other outcome.
func (c *Cache) Do(ctx context.Context, key Key, fn func() (float64, error)) (loss float64, hit bool, err error) {
	type settled struct {
		loss float64
		ok   bool
	}
	ch := make(chan settled, 1)
	loss, claimed := c.Claim(ctx, key, func(loss float64, ok bool) { ch <- settled{loss, ok} })
	switch claimed {
	case Hit:
		return loss, true, nil
	case Miss:
		loss, err = fn()
		c.Finish(key, loss, err == nil)
		if err != nil {
			return 0, false, err
		}
		return loss, false, nil
	}
	if s := <-ch; s.ok {
		return s.loss, true, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	return c.Do(ctx, key, fn) // the owner failed: claim the key again
}
