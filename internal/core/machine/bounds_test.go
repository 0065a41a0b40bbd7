package machine

import (
	"sync/atomic"
	"testing"
)

func boundsFor(n, p int, skew bool) []int {
	bounds := make([]int, p+1)
	if skew && p > 1 {
		// First shard tiny, rest even: exercises empty/uneven shards.
		bounds[1] = 1
		rest := n - 1
		for w := 2; w <= p; w++ {
			bounds[w] = 1 + rest*(w-1)/(p-1)
		}
	} else {
		for w := 0; w <= p; w++ {
			bounds[w] = n * w / p
		}
	}
	bounds[p] = n
	return bounds
}

func TestParallelBoundsExactCover(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, skew := range []bool{false, true} {
			m := New(p)
			n := 1000
			counts := make([]atomic.Uint32, n)
			sawWorker := make([]atomic.Uint32, p)
			m.ParallelBounds(boundsFor(n, p, skew), func(lo, hi, w int) {
				sawWorker[w].Add(1)
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("p=%d skew=%v: index %d visited %d times", p, skew, i, c)
				}
			}
			for w := range sawWorker {
				if c := sawWorker[w].Load(); c > 1 {
					t.Fatalf("p=%d skew=%v: worker %d invoked %d times", p, skew, w, c)
				}
			}
			m.Close()
		}
	}
}

func TestParallelBoundsEmptyAndMismatch(t *testing.T) {
	m := New(2)
	defer m.Close()
	ran := false
	m.ParallelBounds([]int{0, 0, 0}, func(lo, hi, w int) { ran = true })
	if ran {
		t.Fatal("empty bounds invoked body")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched bounds length did not panic")
		}
	}()
	m.ParallelBounds([]int{0, 10}, func(lo, hi, w int) {})
}

func TestTeamBoundsExactCover(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		m := New(p)
		n := 512
		counts := make([]atomic.Uint32, n)
		bounds := boundsFor(n, p, true)
		m.Team(func(tc *TeamCtx) {
			// Two rounds back to back: the closing barrier of the first
			// must order it before the second.
			tc.Bounds(bounds, func(lo, hi, _ int) {
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			})
			tc.Bounds(bounds, func(lo, hi, _ int) {
				for i := lo; i < hi; i++ {
					if counts[i].Load() != 1 {
						panic("first round not complete at second round")
					}
					counts[i].Add(1)
				}
			})
		})
		for i := range counts {
			if c := counts[i].Load(); c != 2 {
				t.Fatalf("p=%d: index %d visited %d times, want 2", p, i, c)
			}
		}
		m.Close()
	}
}
