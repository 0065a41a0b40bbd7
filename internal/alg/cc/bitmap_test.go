package cc

import (
	"testing"

	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

// TestRandMateBitmapMatchesUnionFind validates bit-packed hooking across
// worker counts, backends and seeds: the fetch-OR claim must produce a
// valid spanning forest and labelling just like the round-stamped cells.
func TestRandMateBitmapMatchesUnionFind(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		m := testMachine(t, p)
		for name, g := range testGraphs() {
			k := NewKernel(m, g)
			k.SetBitmap(true)
			for _, e := range machine.Execs {
				k.Prepare()
				r := k.RunRandMateExec(e, 12345)
				if err := Validate(g, r); err != nil {
					t.Fatalf("p=%d %s %v: %v", p, name, e, err)
				}
			}
		}
	}
}

// TestRandMateBitmapDeterministicWordParity: at one worker the fetch-OR
// and the round-stamped cell arbitrate identically (serial order), so the
// bitmap run must reproduce the word run bit for bit — labels, hook edges
// and iteration count.
func TestRandMateBitmapDeterministicWordParity(t *testing.T) {
	m := testMachine(t, 1)
	g := graph.ConnectedRandom(150, 400, 9)
	k := NewKernel(m, g)
	k.Prepare()
	word := k.RunRandMate(7)
	labels := append([]uint32(nil), word.Labels...)
	hooks := append([]uint32(nil), word.HookEdge...)
	k.SetBitmap(true)
	k.Prepare()
	bm := k.RunRandMate(7)
	if word.Iterations != bm.Iterations {
		t.Fatalf("iterations differ: word %d, bitmap %d", word.Iterations, bm.Iterations)
	}
	for i := range labels {
		if labels[i] != bm.Labels[i] || hooks[i] != bm.HookEdge[i] {
			t.Fatalf("bitmap run diverged from word run at vertex %d", i)
		}
	}
}

// TestRandMateBitmapToggleInterleaved alternates representations on one
// kernel across runs: the per-iteration bit clear must leave no state
// behind, and the word cells' round ids must stay monotone.
func TestRandMateBitmapToggleInterleaved(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.Disjoint(graph.ConnectedRandom(60, 150, 5), 3)
	k := NewKernel(m, g)
	for rep := 0; rep < 8; rep++ {
		k.SetBitmap(rep%2 == 0)
		k.Prepare()
		if err := Validate(g, k.RunRandMate(uint64(rep))); err != nil {
			t.Fatalf("rep %d (bitmap=%v): %v", rep, k.Bitmap(), err)
		}
	}
}
