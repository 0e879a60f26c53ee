package slab

import "testing"

func TestArenaRecyclesInOrder(t *testing.T) {
	var a Arena[int]
	first := make([]*int, 3*maxBlock)
	for i := range first {
		first[i] = a.Get()
		*first[i] = i
	}
	a.Reset()
	for i := range first {
		p := a.Get()
		if p != first[i] {
			t.Fatalf("object %d: got a different pointer after Reset", i)
		}
		if *p != i {
			t.Fatalf("object %d: contents %d not preserved for the caller to salvage", i, *p)
		}
	}
}

func TestArenaRetentionIsBounded(t *testing.T) {
	var a Arena[byte]
	for i := 0; i < (maxRetained+3)*maxBlock; i++ {
		a.Get()
	}
	if len(a.blocks) != maxRetained {
		t.Fatalf("retained %d blocks, want %d", len(a.blocks), maxRetained)
	}
	retained := 0
	for _, b := range a.blocks {
		retained += len(b)
	}
	a.Reset()
	if allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < retained; i++ {
			a.Get()
		}
		a.Reset()
	}); allocs != 0 {
		t.Errorf("recycling within the retained blocks allocated %v times", allocs)
	}
}

func TestArenaBlocksGrowGeometrically(t *testing.T) {
	var a Arena[int]
	for i := 0; i < 4*maxBlock; i++ {
		a.Get()
	}
	for i, b := range a.blocks {
		if want := min(minBlock<<i, maxBlock); len(b) != want {
			t.Fatalf("block %d holds %d objects, want %d", i, len(b), want)
		}
	}
}
