package machine

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"crcwpram/internal/sched"
)

func TestTeamForExactCover(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, policy := range sched.Policies {
			m := New(p, WithPolicy(policy), WithChunk(16))
			for _, n := range []int{0, 1, 7, 100, 1023} {
				counts := make([]atomic.Int32, n)
				m.Team(func(tc *TeamCtx) {
					tc.For(n, func(i int) { counts[i].Add(1) })
				})
				for i := range counts {
					if k := counts[i].Load(); k != 1 {
						t.Fatalf("p=%d %v n=%d: index %d visited %d times", p, policy, n, i, k)
					}
				}
			}
			m.Close()
		}
	}
}

func TestTeamManyRoundsOneRegion(t *testing.T) {
	// Many work-shared rounds inside a single region: the mode's point.
	for _, policy := range sched.Policies {
		m := New(4, WithPolicy(policy), WithChunk(8))
		const rounds, n = 200, 37
		var total atomic.Int64
		m.Team(func(tc *TeamCtx) {
			for r := 0; r < rounds; r++ {
				tc.For(n, func(i int) { total.Add(1) })
			}
		})
		if total.Load() != rounds*n {
			t.Fatalf("%v: total = %d, want %d", policy, total.Load(), rounds*n)
		}
		m.Close()
	}
}

func TestTeamForImplicitBarrier(t *testing.T) {
	// Values written in round k must be visible in round k+1 — the
	// defining property of the barrier that ends each team loop.
	m := New(4)
	defer m.Close()
	const n = 10000
	a := make([]uint32, n)
	b := make([]uint32, n)
	m.Team(func(tc *TeamCtx) {
		tc.For(n, func(i int) { a[i] = uint32(i) + 1 })
		tc.For(n, func(i int) { b[i] = a[(i+1)%n] })
	})
	for i := 0; i < n; i++ {
		if b[i] != uint32((i+1)%n)+1 {
			t.Fatalf("b[%d] = %d: round-1 write not visible in round 2", i, b[i])
		}
	}
}

func TestTeamRangeSingleAndWorkerIDs(t *testing.T) {
	const p = 4
	m := New(p)
	defer m.Close()
	const n = 103
	counts := make([]atomic.Int32, n)
	var singles atomic.Int32
	var badW atomic.Int32
	perWorker := make([]int, p)
	m.Team(func(tc *TeamCtx) {
		if tc.W < 0 || tc.W >= p || tc.P() != p {
			badW.Add(1)
		}
		tc.Range(n, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
			perWorker[w] = hi - lo // worker-local slot: no race
		})
		tc.Single(func() { singles.Add(1) })
		// Single's writes are team-visible after its barrier.
		if singles.Load() != 1 {
			badW.Add(1)
		}
	})
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, counts[i].Load())
		}
	}
	total := 0
	for _, c := range perWorker {
		total += c
	}
	if total != n {
		t.Fatalf("block shares sum to %d, want %d", total, n)
	}
	if singles.Load() != 1 {
		t.Fatalf("Single ran %d times, want 1", singles.Load())
	}
	if badW.Load() != 0 {
		t.Fatal("worker id/size out of range or Single write not visible")
	}
}

func TestTeamDynamicCursorReuseAcrossRounds(t *testing.T) {
	// Dynamic/guided team loops share ONE pre-allocated cursor via the
	// epoch reset protocol; loops of different sizes must all be exact
	// covers, across several regions on the same machine.
	for _, policy := range []sched.Policy{sched.Dynamic, sched.Guided} {
		m := New(4, WithPolicy(policy), WithChunk(4))
		for region := 0; region < 3; region++ {
			sizes := []int{5, 400, 1, 73, 256, 0, 999}
			var counts [][]atomic.Int32
			for _, n := range sizes {
				counts = append(counts, make([]atomic.Int32, n))
			}
			m.Team(func(tc *TeamCtx) {
				for r, n := range sizes {
					c := counts[r]
					tc.For(n, func(i int) { c[i].Add(1) })
				}
			})
			for r := range counts {
				for i := range counts[r] {
					if counts[r][i].Load() != 1 {
						t.Fatalf("%v region %d loop %d: index %d visited %d times",
							policy, region, r, i, counts[r][i].Load())
					}
				}
			}
		}
		m.Close()
	}
}

// TestTeamBodyPanicPropagatesAndPoolSurvives mirrors the ParallelFor panic
// test: a panic on one worker inside a team body — while its peers are
// parked at a team barrier — must re-raise on the caller and leave the
// machine usable for both subsequent ParallelFor and Team calls.
func TestTeamBodyPanicPropagatesAndPoolSurvives(t *testing.T) {
	m := New(4)
	defer m.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in team body did not propagate to caller")
			}
		}()
		m.Team(func(tc *TeamCtx) {
			// A few healthy rounds first, so the panic lands mid-region.
			tc.For(100, func(i int) {})
			tc.Barrier()
			if tc.W == 1 {
				panic("team boom")
			}
			// The other workers park here; the abort must release them.
			tc.For(100, func(i int) {})
			tc.For(100, func(i int) {})
		})
	}()
	// The machine must still run one-loop regions...
	var n atomic.Int32
	m.ParallelFor(50, func(i int) { n.Add(1) })
	if n.Load() != 50 {
		t.Fatalf("ParallelFor broken after team panic: %d visits, want 50", n.Load())
	}
	// ...and fresh team regions, including their barriers.
	var total atomic.Int64
	m.Team(func(tc *TeamCtx) {
		for r := 0; r < 20; r++ {
			tc.For(64, func(i int) { total.Add(1) })
		}
	})
	if total.Load() != 20*64 {
		t.Fatalf("team broken after panic: %d visits, want %d", total.Load(), 20*64)
	}
}

// parkedIn counts the goroutines asleep on the machine's lot inside the
// given frame, e.g. "(*TeamCtx).barrier".
func parkedIn(frame string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, frame) {
			n++
		}
	}
	return n
}

// TestTeamAbortWakesParkedPeers is the abort path once the wait policy has
// parked the peers: the panicking worker first waits until the other
// three have slept past the spin and yield phases and parked — at the
// round barrier, or, on a dynamic machine, in the loop reset whose ticket
// the panicking worker holds — and only then panics. The abort must wake
// them, the panic must surface once on the caller, and the machine must
// stay usable.
func TestTeamAbortWakesParkedPeers(t *testing.T) {
	const p = 4
	for _, c := range []struct {
		policy sched.Policy
		frame  string
	}{
		{sched.Block, "(*TeamCtx).barrier"},
		{sched.Dynamic, "(*TeamCtx).barrier"},
		{sched.Dynamic, "(*TeamCtx).resetLoop"},
	} {
		name := c.policy.String() + " " + c.frame
		m := New(p, WithPolicy(c.policy))
		boom := func() {
			deadline := time.Now().Add(10 * time.Second)
			for parkedIn(c.frame) < p-1 {
				if time.Now().After(deadline) {
					t.Errorf("%s: the peers never parked", name)
					break
				}
				time.Sleep(time.Millisecond)
			}
			panic("team boom")
		}
		panics := 0
		func() {
			defer func() {
				if pv := recover(); pv != nil {
					panics++
					if pv != "team boom" {
						t.Errorf("%s: recovered %v, want team boom", name, pv)
					}
				}
			}()
			won := make(chan struct{})
			m.Team(func(tc *TeamCtx) {
				tc.For(100, func(int) {})
				if c.frame == "(*TeamCtx).resetLoop" {
					// Worker 1 takes the next loop's ticket and never
					// publishes its reset; the peers enter that loop only
					// once it holds the ticket.
					if tc.W == 1 {
						tc.resetLoop(func() {
							close(won)
							boom()
						})
					}
					<-won
				} else if tc.W == 1 {
					boom()
				}
				tc.For(100, func(int) {})
			})
		}()
		if panics != 1 {
			t.Errorf("%s: the panic surfaced %d times, want once", name, panics)
		}
		var total atomic.Int64
		m.ParallelFor(50, func(int) { total.Add(1) })
		m.Team(func(tc *TeamCtx) {
			for r := 0; r < 20; r++ {
				tc.For(64, func(int) { total.Add(1) })
			}
		})
		if total.Load() != 50+20*64 {
			t.Errorf("%s: machine broken after the abort: %d visits, want %d", name, total.Load(), 50+20*64)
		}
		m.Close()
	}
}

func TestTeamPanicInSingle(t *testing.T) {
	m := New(3)
	defer m.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in Single did not propagate")
			}
		}()
		m.Team(func(tc *TeamCtx) {
			tc.Single(func() { panic("single boom") })
			tc.For(10, func(i int) {})
		})
	}()
	var n atomic.Int32
	m.Team(func(tc *TeamCtx) { tc.For(30, func(i int) { n.Add(1) }) })
	if n.Load() != 30 {
		t.Fatalf("machine broken after Single panic: %d, want 30", n.Load())
	}
}

func TestTeamSingleWorkerInline(t *testing.T) {
	// p == 1 runs the body inline on the caller; a panic propagates raw.
	m := New(1)
	defer m.Close()
	ran := 0
	m.Team(func(tc *TeamCtx) {
		if tc.W != 0 || tc.P() != 1 {
			t.Errorf("W=%d P=%d, want 0/1", tc.W, tc.P())
		}
		tc.For(10, func(i int) { ran++ })
		tc.Barrier()
		tc.Single(func() { ran++ })
		tc.Range(5, func(lo, hi, _ int) { ran += hi - lo })
	})
	if ran != 16 {
		t.Fatalf("ran = %d, want 16", ran)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inline team panic did not propagate")
		}
	}()
	m.Team(func(tc *TeamCtx) { panic("inline boom") })
}

func TestTeamUseAfterClosePanics(t *testing.T) {
	m := New(2)
	m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Team after Close did not panic")
		}
	}()
	m.Team(func(tc *TeamCtx) {})
}

func TestTeamInterleavedWithPoolRounds(t *testing.T) {
	for _, policy := range sched.Policies {
		m := New(4, WithPolicy(policy), WithChunk(8))
		var total atomic.Int64
		for r := 0; r < 10; r++ {
			m.ParallelFor(100, func(i int) { total.Add(1) })
			m.Team(func(tc *TeamCtx) {
				tc.For(100, func(i int) { total.Add(1) })
				tc.For(100, func(i int) { total.Add(1) })
			})
		}
		if total.Load() != 3000 {
			t.Fatalf("%v: total = %d, want 3000", policy, total.Load())
		}
		m.Close()
	}
}

// TestTeamCtxSize pins TeamCtx to two cache lines: the machine keeps one
// per worker in a slice, and the padding keeps each worker's loop counters
// off its neighbours' lines.
func TestTeamCtxSize(t *testing.T) {
	if s := unsafe.Sizeof(TeamCtx{}); s != 128 {
		t.Fatalf("TeamCtx is %d bytes, want 128", s)
	}
}

func TestExecParseRoundTrip(t *testing.T) {
	for _, e := range Execs {
		got, ok := ParseExec(e.String())
		if !ok || got != e {
			t.Fatalf("ParseExec(%q) = %v, %v", e.String(), got, ok)
		}
	}
	if _, ok := ParseExec("warp"); ok {
		t.Fatal("ParseExec accepted an unknown mode")
	}
}

// BenchmarkRoundOverhead quantifies the fixed cost of one empty PRAM round
// under both region shapes: a ParallelFor call is a one-loop region and
// pays the region barrier's two P-party phases per round, with the caller
// arriving as worker 0; a round inside a Team region entered once pays one
// P-party team barrier. At small per-round work the fixed cost dominates,
// which is why kernels run as one region each.
func BenchmarkRoundOverhead(b *testing.B) {
	ps := []int{1, 2, 4, 8}
	if ncpu := runtime.NumCPU(); ncpu > 8 {
		ps = append(ps, ncpu)
	}
	for _, p := range ps {
		b.Run("region=per-round/p="+itoa(p), func(b *testing.B) {
			m := New(p)
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ParallelFor(p, func(int) {})
			}
		})
		b.Run("region=per-kernel/p="+itoa(p), func(b *testing.B) {
			m := New(p)
			defer m.Close()
			b.ResetTimer()
			m.Team(func(tc *TeamCtx) {
				for i := 0; i < b.N; i++ {
					tc.For(p, func(int) {})
				}
			})
		})
	}
}
