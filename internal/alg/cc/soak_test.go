package cc

import (
	"testing"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

// TestSoakRandomizedGraphs hammers the hooking logic — the subtlest
// concurrency in the repository — across many random graphs, shapes, seeds
// and worker counts. The directional-hooking cycle bug this package fixes
// reproduced roughly once per few hundred runs at p=4, so the soak's value
// is its volume; skip it in -short mode.
func TestSoakRandomizedGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, p := range []int{2, 4, 8} {
		m := machine.New(p)
		for trial := 0; trial < 120; trial++ {
			seed := int64(p*1000 + trial)
			n := 30 + trial%170
			edges := (trial % 7) * n
			var g *graph.Graph
			switch trial % 4 {
			case 0:
				g = graph.RandomUndirected(n, edges, seed)
			case 1:
				g = graph.ConnectedRandom(n, edges+n, seed)
			case 2:
				g = graph.Disjoint(graph.Star(n/4+2), 4)
			default:
				g = graph.RMAT(7, edges+16, 0.57, 0.19, 0.19, seed)
			}
			k := NewKernel(m, g)

			k.Prepare()
			if err := Validate(g, k.Run(cw.CASLT)); err != nil {
				t.Fatalf("p=%d trial %d caslt: %v", p, trial, err)
			}
			k.Prepare()
			if err := Validate(g, k.Run(cw.Gatekeeper)); err != nil {
				t.Fatalf("p=%d trial %d gatekeeper: %v", p, trial, err)
			}
			k.Prepare()
			if err := Validate(g, k.RunRandMate(uint64(seed))); err != nil {
				t.Fatalf("p=%d trial %d randmate: %v", p, trial, err)
			}
		}
		m.Close()
	}
}
