package barrier

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func forEachKind(t *testing.T, f func(t *testing.T, k Kind)) {
	t.Helper()
	for _, k := range Kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) { f(t, k) })
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range Kinds {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = (%v, %v)", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("nope"); ok {
		t.Fatal("ParseKind accepted unknown name")
	}
}

func TestNewRejectsZeroParties(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		defer func() {
			if recover() == nil {
				t.Fatal("New with 0 parties did not panic")
			}
		}()
		New(k, 0)
	})
}

func TestSinglePartyNeverBlocks(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		b := New(k, 1)
		doneCh := make(chan struct{})
		go func() {
			for i := 0; i < 1000; i++ {
				b.Wait(0)
			}
			close(doneCh)
		}()
		select {
		case <-doneCh:
		case <-time.After(5 * time.Second):
			t.Fatal("single-party barrier blocked")
		}
	})
}

// The fundamental barrier property: no worker enters phase k+1 until every
// worker has finished phase k. Each worker increments a per-phase counter
// before the barrier; after the barrier the counter must equal the party
// size.
func TestNoWorkerPassesEarly(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		for _, parties := range []int{2, 3, 4, 7, 16, 33} {
			const phases = 200
			b := New(k, parties)
			counts := make([]atomic.Int32, phases)
			var violated atomic.Bool
			var wg sync.WaitGroup
			wg.Add(parties)
			for w := 0; w < parties; w++ {
				w := w
				go func() {
					defer wg.Done()
					for p := 0; p < phases; p++ {
						counts[p].Add(1)
						b.Wait(w)
						if got := counts[p].Load(); got != int32(parties) {
							// Record but keep participating so the other
							// workers are not deadlocked at the barrier.
							violated.Store(true)
						}
					}
				}()
			}
			wg.Wait()
			if violated.Load() {
				t.Fatalf("%v/%d parties: a worker passed the barrier before all arrived", k, parties)
			}
		}
	})
}

// Reusability across many phases with workers doing uneven amounts of work
// between phases (stresses the sense-derivation logic).
func TestUnevenWorkAcrossPhases(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		const parties = 8
		const phases = 300
		b := New(k, parties)
		var total atomic.Int64
		var wg sync.WaitGroup
		wg.Add(parties)
		for w := 0; w < parties; w++ {
			w := w
			go func() {
				defer wg.Done()
				spin := 0
				for p := 0; p < phases; p++ {
					// Worker-and-phase-dependent delay.
					for i := 0; i < (w*31+p*7)%200; i++ {
						spin++
					}
					total.Add(1)
					b.Wait(w)
				}
				_ = spin
			}()
		}
		wg.Wait()
		if got := total.Load(); got != parties*phases {
			t.Fatalf("%v: total = %d, want %d", k, got, parties*phases)
		}
	})
}

func TestParties(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		for _, p := range []int{1, 2, 5, 64} {
			if got := New(k, p).Parties(); got != p {
				t.Fatalf("%v: Parties() = %d, want %d", k, got, p)
			}
		}
	})
}

// Property: for any party size 1..24 and phase count 1..50, a full run
// completes (no deadlock) and observes the barrier invariant.
func TestQuickBarrierInvariant(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		f := func(pRaw, phRaw uint8) bool {
			parties := int(pRaw)%24 + 1
			phases := int(phRaw)%50 + 1
			b := New(k, parties)
			counts := make([]atomic.Int32, phases)
			ok := atomic.Bool{}
			ok.Store(true)
			var wg sync.WaitGroup
			wg.Add(parties)
			for w := 0; w < parties; w++ {
				w := w
				go func() {
					defer wg.Done()
					for p := 0; p < phases; p++ {
						counts[p].Add(1)
						b.Wait(w)
						if counts[p].Load() != int32(parties) {
							// Keep participating to avoid deadlocking the
							// rest of the party.
							ok.Store(false)
						}
					}
				}()
			}
			wg.Wait()
			return ok.Load()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func BenchmarkBarrierPhase(b *testing.B) {
	for _, k := range Kinds {
		for _, parties := range []int{2, 4, 8, 16} {
			b.Run(k.String()+"/p="+itoa(parties), func(b *testing.B) {
				bar := New(k, parties)
				var wg sync.WaitGroup
				wg.Add(parties)
				phases := b.N
				b.ResetTimer()
				for w := 0; w < parties; w++ {
					w := w
					go func() {
						defer wg.Done()
						for p := 0; p < phases; p++ {
							bar.Wait(w)
						}
					}()
				}
				wg.Wait()
			})
		}
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

// parked counts the goroutines asleep on a condition variable inside this
// package: the waiters of a Central barrier and the waiters that reached
// the park phase of the wait policy.
func parked() int {
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
		if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "crcwpram/internal/barrier.(*") {
			n++
		}
	}
	return n
}

// TestLatePartyFindsPeersParked runs the park and wake path in every
// phase: one party, a different one each phase, arrives only once the
// others have slept past the wait policy's spin and yield phases and
// parked, and the barrier invariant must still hold.
func TestLatePartyFindsPeersParked(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		const parties = 3
		const phases = 2 * parties
		b := New(k, parties)
		counts := make([]atomic.Int32, phases)
		var violated, unparked atomic.Bool
		var wg sync.WaitGroup
		wg.Add(parties)
		for w := 0; w < parties; w++ {
			go func() {
				defer wg.Done()
				for p := 0; p < phases; p++ {
					counts[p].Add(1)
					if p%parties == w {
						deadline := time.Now().Add(10 * time.Second)
						for parked() < parties-1 {
							if time.Now().After(deadline) {
								unparked.Store(true)
								break
							}
							time.Sleep(time.Millisecond)
						}
					}
					b.Wait(w)
					if counts[p].Load() != parties {
						violated.Store(true)
					}
				}
			}()
		}
		wg.Wait()
		if violated.Load() {
			t.Fatalf("%v: a worker passed the barrier before all arrived", k)
		}
		if unparked.Load() {
			t.Fatalf("%v: the early parties never parked while the late one waited", k)
		}
	})
}
