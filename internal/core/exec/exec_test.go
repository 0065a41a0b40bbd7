package exec

import (
	"reflect"
	"sync/atomic"
	"testing"

	"crcwpram/internal/core/machine"
)

// sumBody is a miniature SPMD kernel exercising every Ctx primitive: a
// flag-driven round loop that repeatedly doubles a vector until a cap,
// accumulating per-worker partial sums reduced in a Single.
func sumBody(n int, out *int64) func(Ctx) {
	// Shared scratch is allocated driver-side: under team every worker runs
	// its own copy of the body, so an in-body allocation would be
	// worker-local.
	vals := make([]int64, n)
	part := make([]int64, 64)
	return func(ctx Ctx) {
		ctx.For(n, func(i int) { vals[i] = 1 })
		done := ctx.Flag()
		done.Set(0, 0)
		for it := uint32(0); ; it++ {
			round := ctx.NextRound()
			_ = round
			done.Set(it+1, 1) // prime: assume converged
			ctx.For(n, func(i int) {
				if vals[i] < 8 {
					vals[i] *= 2
					done.Set(it, 0)
				}
			})
			if done.Get(it) == 1 {
				break
			}
		}
		ctx.Range(n, func(lo, hi, w int) {
			var s int64
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			part[w] = s
		})
		ctx.Single(func() {
			var tot int64
			for w := 0; w < ctx.P(); w++ {
				tot += part[w]
				part[w] = 0
			}
			atomic.StoreInt64(out, tot)
		})
		ctx.Barrier()
		if ctx.Worker() == 0 {
			atomic.AddInt64(out, 0)
		}
	}
}

// backends is every execution backend, the untimed trace replay included.
var backends = []machine.Exec{machine.ExecTeam, machine.ExecTrace}

// TestBackendsAgree runs the same body under team and trace and expects
// identical results.
func TestBackendsAgree(t *testing.T) {
	for _, p := range []int{1, 3, 4} {
		m := machine.New(p)
		for _, e := range backends {
			const n = 37
			var got int64
			st := Run(m, e, sumBody(n, &got))
			if got != 8*n {
				t.Errorf("p=%d exec=%v: sum = %d, want %d", p, e, got, 8*n)
			}
			if (st != nil) != (e == machine.ExecTrace) {
				t.Errorf("p=%d exec=%v: TraceStats presence wrong (%v)", p, e, st)
			}
		}
		m.Close()
	}
}

// TestTraceCounts pins the structural record of a known body: steps,
// barriers, singles, iteration totals, and the block partitioning of
// Iters.
func TestTraceCounts(t *testing.T) {
	m := machine.New(4)
	defer m.Close()
	st := Run(m, machine.ExecTrace, func(ctx Ctx) {
		ctx.For(10, func(int) {})                                // step 1
		ctx.ForWorker(6, func(int, int) {})                      // step 2
		ctx.Range(4, func(int, int, int) {})                     // step 3
		ctx.Bounds([]int{0, 0, 2, 2, 3}, func(int, int, int) {}) // step 4
		ctx.Barrier()
		ctx.Single(func() {})
		if r := ctx.NextRound(); r != 1 {
			t.Errorf("first NextRound = %d, want 1", r)
		}
		if r := ctx.NextRound(); r != 2 {
			t.Errorf("second NextRound = %d, want 2", r)
		}
	})
	if st.Steps != 4 {
		t.Errorf("Steps = %d, want 4", st.Steps)
	}
	// 4 loop barriers + 1 explicit + 1 single.
	if st.Barriers != 6 {
		t.Errorf("Barriers = %d, want 6", st.Barriers)
	}
	if st.Singles != 1 {
		t.Errorf("Singles = %d, want 1", st.Singles)
	}
	if st.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", st.Rounds)
	}
	// For(10): block over 4 = 3,3,2,2. ForWorker(6): 2,2,1,1.
	// Range(4): 1,1,1,1. Bounds: 0,2,0,1.
	want := []uint64{3 + 2 + 1 + 0, 3 + 2 + 1 + 2, 2 + 1 + 1 + 0, 2 + 1 + 1 + 1}
	if !reflect.DeepEqual(st.Iters, want) {
		t.Errorf("Iters = %v, want %v", st.Iters, want)
	}
	if st.TotalIters() != 10+6+4+3 {
		t.Errorf("TotalIters = %d, want %d", st.TotalIters(), 10+6+4+3)
	}
	if st.MaxIters() != 8 {
		t.Errorf("MaxIters = %d, want 8", st.MaxIters())
	}
}

// TestWorkerIds checks the worker id plumbing per backend: the SPMD-level
// Worker() and the per-share ids of Range.
func TestWorkerIds(t *testing.T) {
	m := machine.New(3)
	defer m.Close()
	for _, e := range backends {
		var seen [3]atomic.Uint32
		var zeroes atomic.Uint32
		Run(m, e, func(ctx Ctx) {
			if ctx.Worker() == 0 {
				zeroes.Add(1)
			}
			ctx.Range(3, func(lo, hi, w int) {
				for i := lo; i < hi; i++ {
					seen[w].Add(1)
				}
			})
		})
		if zeroes.Load() != 1 {
			t.Errorf("exec=%v: %d workers claimed Worker()==0, want 1", e, zeroes.Load())
		}
		for w := range seen {
			if seen[w].Load() != 1 {
				t.Errorf("exec=%v: worker %d ran %d iterations, want 1", e, w, seen[w].Load())
			}
		}
	}
}

// TestPanicPropagates checks that a body panic surfaces on the caller
// under every backend and leaves the machine usable.
func TestPanicPropagates(t *testing.T) {
	m := machine.New(4)
	defer m.Close()
	for _, e := range backends {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("exec=%v: panic did not propagate", e)
				}
			}()
			Run(m, e, func(ctx Ctx) {
				ctx.For(4, func(i int) {
					if i == 2 {
						panic("boom")
					}
				})
			})
		}()
		var ok int64
		Run(m, e, sumBody(5, &ok))
		if ok != 40 {
			t.Errorf("exec=%v: machine unusable after panic (sum=%d)", e, ok)
		}
	}
}

// TestFlagConvergenceLoop drives the rotating-flag pattern under every
// backend: a countdown loop where every worker must observe the same
// number of rounds, repeated to shake out races in the three-slot
// rotation.
func TestFlagConvergenceLoop(t *testing.T) {
	m := machine.New(4)
	defer m.Close()
	const n = 256
	for _, e := range backends {
		for rep := 0; rep < 50; rep++ {
			work := make([]uint32, n)
			for i := range work {
				work[i] = uint32(3 + rep%5)
			}
			roundsSeen := make([]uint32, m.P())
			Run(m, e, func(ctx Ctx) {
				// A fresh flag reads 0 ("changed") in every slot, so round 0
				// needs no prime.
				done := ctx.Flag()
				r := uint32(0)
				for {
					done.Set(r+1, 1) // prime next round (common CW)
					ctx.Range(n, func(lo, hi, _ int) {
						progress := false
						for i := lo; i < hi; i++ {
							if work[i] > 0 {
								work[i]--
								progress = true
							}
						}
						if progress {
							done.Set(r, 0)
						}
					})
					if done.Get(r) == 1 {
						roundsSeen[ctx.Worker()] = r
						break
					}
					r++
				}
			})
			want := uint32(3 + rep%5)
			for w, r := range roundsSeen {
				// Under trace only the single body (worker 0) runs.
				if e == machine.ExecTrace && w > 0 {
					break
				}
				if r != want {
					t.Fatalf("exec=%v rep %d: worker %d exited at round %d, want %d", e, rep, w, r, want)
				}
			}
		}
	}
}
