package matching

import (
	"testing"

	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

// TestBitmapProducesMaximalMatching validates the bit-packed proposal and
// liveness state across worker counts, backends and seeds.
func TestBitmapProducesMaximalMatching(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"star":  graph.Star(40),
		"path":  graph.Path(101),
		"rmat":  graph.RMAT(7, 400, 0.5, 0.2, 0.2, 6),
		"dense": graph.ConnectedRandom(80, 600, 2),
	}
	for _, p := range []int{1, 2, 4, 8} {
		m := testMachine(t, p)
		for name, g := range graphs {
			k := NewKernel(m, g)
			k.SetBitmap(true)
			for _, e := range machine.Execs {
				for seed := uint64(0); seed < 3; seed++ {
					k.Prepare()
					if err := Validate(g, k.RunExec(e, seed)); err != nil {
						t.Fatalf("p=%d %s %v seed %d: %v", p, name, e, seed, err)
					}
				}
			}
		}
	}
}

// TestBitmapWordParityAtOneWorker: serial arbitration orders coincide, so
// the bitmap run must reproduce the word run's mates, edges and iteration
// count exactly at P=1.
func TestBitmapWordParityAtOneWorker(t *testing.T) {
	m := testMachine(t, 1)
	g := graph.ConnectedRandom(120, 500, 8)
	k := NewKernel(m, g)
	k.Prepare()
	word := k.Run(42)
	mates := append([]uint32(nil), word.Mate...)
	edges := append([]uint32(nil), word.MateEdge...)
	k.SetBitmap(true)
	k.Prepare()
	bm := k.Run(42)
	if word.Iterations != bm.Iterations {
		t.Fatalf("iterations differ: word %d, bitmap %d", word.Iterations, bm.Iterations)
	}
	for v := range mates {
		if mates[v] != bm.Mate[v] || edges[v] != bm.MateEdge[v] {
			t.Fatalf("bitmap run diverged from word run at vertex %d", v)
		}
	}
}

// TestBitmapToggleInterleaved alternates representations across runs on
// one kernel; Prepare must fully reset deadBits each time.
func TestBitmapToggleInterleaved(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.RMAT(7, 500, 0.45, 0.22, 0.22, 3)
	k := NewKernel(m, g)
	for rep := 0; rep < 8; rep++ {
		k.SetBitmap(rep%2 == 0)
		k.Prepare()
		if err := Validate(g, k.Run(uint64(rep))); err != nil {
			t.Fatalf("rep %d (bitmap=%v): %v", rep, k.Bitmap(), err)
		}
	}
}
