package bfs

import (
	"testing"

	"crcwpram/internal/graph"
)

// TestBitmapVariantsMatchWord is the bit-packed twin of
// TestPullHybridMatchPush: pull, hybrid and frontier with SetBitmap(true),
// both balances, P in {1,2,4,8}, checked level-for-level
// against the word-representation CAS-LT push result and the sequential
// baseline. The representations must be output-identical by construction.
func TestBitmapVariantsMatchWord(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		m := testMachine(t, p)
		for name, g := range directionGraphs() {
			for _, bal := range graph.Balances {
				k := NewKernel(m, g)
				k.SetBalance(bal)
				k.Prepare(0)
				push := k.RunCASLT()
				pushLevels := append([]uint32(nil), push.Level...)
				push.Level = pushLevels
				k.SetBitmap(true)
				runs := map[string]func() Result{
					"pull":     k.RunCASLTPull,
					"hybrid":   k.RunCASLTHybrid,
					"frontier": k.RunCASLTFrontier,
				}
				for kind, run := range runs {
					k.Prepare(0)
					r := run()
					tag := name + "/" + bal.String() + "/bitmap-" + kind
					if kind == "frontier" {
						// Frontier is push-only: the strict validator applies.
						if err := Validate(g, 0, r, true); err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						for u := range r.Level {
							if r.Level[u] != push.Level[u] {
								t.Fatalf("%s: level[%d] = %d, word push has %d", tag, u, r.Level[u], push.Level[u])
							}
						}
						continue
					}
					checkPullResult(t, g, 0, r, push, tag)
				}
			}
		}
	}
}

// TestBitmapToggleInterleaved toggles the representation between runs on
// one kernel (Prepare between each, as documented): word and bitmap runs
// must not perturb each other through the shared level/parent arrays or
// the CAS-LT round offset.
func TestBitmapToggleInterleaved(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(150, 600, 17)
	k := NewKernel(m, g)
	seq := Sequential(g, 3)
	for rep := 0; rep < 8; rep++ {
		k.SetBitmap(rep%2 == 0)
		k.Prepare(3)
		var r Result
		switch rep % 4 {
		case 0, 1:
			r = k.RunCASLTHybrid()
		case 2:
			r = k.RunCASLTPull()
		case 3:
			r = k.RunCASLTFrontier()
		}
		for u := range r.Level {
			if r.Level[u] != seq.Level[u] {
				t.Fatalf("rep %d (bitmap=%v): level[%d] = %d, want %d",
					rep, k.Bitmap(), u, r.Level[u], seq.Level[u])
			}
		}
	}
}

// TestBitmapDeepPath drives the pure-pull double-buffer swap/clear through
// many levels (a path graph is one swap per vertex) and a star through the
// single-level worst case.
func TestBitmapDeepPath(t *testing.T) {
	m := testMachine(t, 4)
	for name, g := range map[string]*graph.Graph{
		"path": graph.Path(300),
		"star": graph.Star(200),
	} {
		k := NewKernel(m, g)
		k.SetBitmap(true)
		seq := Sequential(g, 0)
		for _, run := range []func() Result{k.RunCASLTPull, k.RunCASLTHybrid} {
			k.Prepare(0)
			r := run()
			if r.Depth != seq.Depth {
				t.Fatalf("%s: depth %d, want %d", name, r.Depth, seq.Depth)
			}
			for u := range r.Level {
				if r.Level[u] != seq.Level[u] {
					t.Fatalf("%s: level[%d] = %d, want %d", name, u, r.Level[u], seq.Level[u])
				}
			}
		}
	}
}
