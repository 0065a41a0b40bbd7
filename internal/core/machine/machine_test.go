package machine

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"crcwpram/internal/barrier"
	"crcwpram/internal/sched"
)

func TestNewRejectsZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestParallelForExactCover(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, policy := range sched.Policies {
			m := New(p, WithPolicy(policy), WithChunk(16))
			for _, n := range []int{0, 1, 7, 100, 1023} {
				counts := make([]atomic.Int32, n)
				m.ParallelFor(n, func(i int) { counts[i].Add(1) })
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

func TestParallelForWorkerIDsInRange(t *testing.T) {
	const p = 4
	m := New(p)
	defer m.Close()
	var bad atomic.Int32
	m.ParallelForWorker(1000, func(i, w int) {
		if w < 0 || w >= p {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker id out of range")
	}
}

func TestParallelForImplicitBarrier(t *testing.T) {
	// Values written in round k must all be visible in round k+1: the
	// defining property of the implicit barrier.
	m := New(4)
	defer m.Close()
	const n = 10000
	a := make([]uint32, n)
	b := make([]uint32, n)
	m.ParallelFor(n, func(i int) { a[i] = uint32(i) + 1 })
	m.ParallelFor(n, func(i int) { b[i] = a[(i+1)%n] })
	for i := 0; i < n; i++ {
		if b[i] != uint32((i+1)%n)+1 {
			t.Fatalf("b[%d] = %d: round-1 write not visible in round 2", i, b[i])
		}
	}
}

func TestParallelRangeBlocksPartition(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		m := New(p)
		const n = 103
		counts := make([]atomic.Int32, n)
		var calls atomic.Int32
		m.ParallelRange(n, func(lo, hi, w int) {
			calls.Add(1)
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
		})
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("p=%d: index %d covered %d times", p, i, counts[i].Load())
			}
		}
		if c := calls.Load(); c > int32(p) {
			t.Fatalf("p=%d: %d range calls, want <= %d", p, c, p)
		}
		m.Close()
	}
}

func TestParallelFor2DCollapse(t *testing.T) {
	m := New(4)
	defer m.Close()
	const n1, n2 = 37, 53
	counts := make([]atomic.Int32, n1*n2)
	m.ParallelFor2D(n1, n2, func(i, j int) {
		if i < 0 || i >= n1 || j < 0 || j >= n2 {
			panic("index out of range")
		}
		counts[i*n2+j].Add(1)
	})
	for k := range counts {
		if counts[k].Load() != 1 {
			t.Fatalf("pair %d visited %d times", k, counts[k].Load())
		}
	}
	// Degenerate dimensions are no-ops.
	m.ParallelFor2D(0, 10, func(i, j int) { t.Error("body called for n1=0") })
	m.ParallelFor2D(10, 0, func(i, j int) { t.Error("body called for n2=0") })
}

func TestRoundCounter(t *testing.T) {
	m := New(2)
	defer m.Close()
	if m.Round() != 0 {
		t.Fatalf("fresh Round() = %d, want 0", m.Round())
	}
	if r := m.NextRound(); r != 1 {
		t.Fatalf("first NextRound() = %d, want 1", r)
	}
	if r := m.NextRound(); r != 2 {
		t.Fatalf("second NextRound() = %d, want 2", r)
	}
	m.ResetRound()
	if m.Round() != 0 {
		t.Fatal("ResetRound did not rewind")
	}
}

func TestMachineReuseManyRounds(t *testing.T) {
	m := New(3)
	defer m.Close()
	const rounds = 500
	var total atomic.Int64
	for r := 0; r < rounds; r++ {
		m.ParallelFor(10, func(i int) { total.Add(1) })
	}
	if total.Load() != rounds*10 {
		t.Fatalf("total = %d, want %d", total.Load(), rounds*10)
	}
}

func TestBodyPanicPropagatesAndPoolSurvives(t *testing.T) {
	m := New(4)
	defer m.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in body did not propagate to caller")
			}
		}()
		m.ParallelFor(100, func(i int) {
			if i == 41 {
				panic("boom")
			}
		})
	}()
	// The machine must still work after a body panic.
	var n atomic.Int32
	m.ParallelFor(50, func(i int) { n.Add(1) })
	if n.Load() != 50 {
		t.Fatalf("machine broken after panic: %d visits, want 50", n.Load())
	}
}

func TestUseAfterClosePanics(t *testing.T) {
	m := New(2)
	m.Close()
	m.Close() // double Close is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("ParallelFor after Close did not panic")
		}
	}()
	m.ParallelFor(1, func(i int) {})
}

func TestAllBarrierKinds(t *testing.T) {
	for _, k := range barrier.Kinds {
		m := New(4, WithBarrier(k))
		var total atomic.Int32
		for r := 0; r < 50; r++ {
			m.ParallelFor(100, func(i int) { total.Add(1) })
		}
		if total.Load() != 5000 {
			t.Fatalf("%v: total = %d, want 5000", k, total.Load())
		}
		m.Close()
	}
}

// Property: any (n, p, policy) combination yields an exact cover and the
// machine survives repeated rounds.
func TestQuickMachineExactCover(t *testing.T) {
	f := func(nRaw uint16, pRaw, polRaw uint8) bool {
		n := int(nRaw) % 3000
		p := int(pRaw)%8 + 1
		policy := sched.Policies[int(polRaw)%len(sched.Policies)]
		m := New(p, WithPolicy(policy))
		defer m.Close()
		counts := make([]atomic.Int32, n)
		m.ParallelFor(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if counts[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParallelForOverhead(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run("p="+itoa(p), func(b *testing.B) {
			m := New(p)
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ParallelFor(p, func(int) {})
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestParallelFor2DOverflowPanics(t *testing.T) {
	m := New(2)
	defer m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing dimensions did not panic")
		}
	}()
	const huge = 1 << 32
	m.ParallelFor2D(huge, huge, func(i, j int) {})
}

func TestAccessors(t *testing.T) {
	m := New(3, WithPolicy(sched.Cyclic))
	defer m.Close()
	if m.P() != 3 {
		t.Fatalf("P() = %d, want 3", m.P())
	}
	if m.Policy() != sched.Cyclic {
		t.Fatalf("Policy() = %v, want cyclic", m.Policy())
	}
}

func TestParallelRangeAfterCloseAndZeroN(t *testing.T) {
	m := New(2)
	m.ParallelRange(0, func(lo, hi, w int) { t.Error("body called for n=0") })
	m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("ParallelRange after Close did not panic")
		}
	}()
	m.ParallelRange(1, func(lo, hi, w int) {})
}
