// Package slab is the block allocator behind the simulation kernel's
// per-run objects (des events, flow activities). Objects are handed out
// in a fixed order, never freed one by one, and recycled wholesale by
// Reset — which is what lets a reused kernel replay a simulation without
// allocating, and why every handle into an arena dies at Reset.
package slab

// Blocks double in size from minBlock to maxBlock objects, so a small
// one-shot simulation pays for about what it uses while a large one
// settles at one allocation per maxBlock objects.
const (
	minBlock = 32
	maxBlock = 256
)

// maxRetained bounds the blocks an arena keeps for reuse (about 64k
// objects). Calibration-sized simulations fit well inside it and recycle
// everything; a one-shot 10^6-activity run allocates the excess blocks
// unretained, so they are collected as soon as their objects are
// unreferenced instead of pinning the whole run's history in memory.
const maxRetained = 256

// Arena hands out *T from blocks. The zero value is ready to use.
type Arena[T any] struct {
	blocks [][]T // retained blocks, handed out again in order after Reset
	next   int   // retained blocks consumed since the last Reset
	size   int   // size of the last block allocated
	cur    []T   // unconsumed tail of the current block
}

// Get returns the next object. After a Reset it is a recycled one still
// holding its previous contents: callers overwrite it (and may first
// salvage buffers it owns).
func (a *Arena[T]) Get() *T {
	if len(a.cur) == 0 {
		if a.next < len(a.blocks) {
			a.cur = a.blocks[a.next]
			a.next++
		} else {
			a.size = min(max(2*a.size, minBlock), maxBlock)
			a.cur = make([]T, a.size)
			if len(a.blocks) < maxRetained {
				if a.blocks == nil {
					a.blocks = make([][]T, 0, 8) // one allocation covers ~2000 objects
				}
				a.blocks = append(a.blocks, a.cur)
				a.next++
			}
		}
	}
	p := &a.cur[0]
	a.cur = a.cur[1:]
	return p
}

// Reset makes every retained object available again, in the original
// order. Pointers obtained before Reset must not be used afterwards.
func (a *Arena[T]) Reset() {
	a.next = 0
	a.cur = nil
}
