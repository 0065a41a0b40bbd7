package barrier

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The wait policy's budgets. A wait re-checks what it awaits on plain
// loads for its lot's spin budget, then between runtime.Gosched calls
// until it has lasted parkAfter, then parks until a releaser wakes it —
// OpenMP's OMP_WAIT_POLICY/GOMP_SPINCOUNT split.
//
// A lot starts at the short budget, spinShared, as libgomp throttles its
// spin count when there are more threads than CPUs: a waiter that spins
// holds a P that a peer may need in order to arrive. Calibrate grants the
// long budget, spinDedicated, when every party can hold a P of its own. It
// is long enough (about 40 µs of loads on a 2-vCPU Xeon) that a round of a
// few microseconds, such as a BFS level of a 4096×4 grid, never leaves the
// spin phase, as the paper's active wait never does.
const (
	spinDedicated = 1 << 14
	spinShared    = 128
	parkAfter     = time.Millisecond
)

// Lot is the wait policy's state for the waiters of one or more barriers:
// the spin budget and the condition variable waiters park on. Whoever
// publishes what a waiter awaits calls Wake after the store; when no
// waiter has parked, that costs one atomic load. Create a Lot with NewLot.
type Lot struct {
	spins    atomic.Int32 // the spin phase's budget, in loads
	sleepers atomic.Int32 // waiters registered to park
	mu       sync.Mutex
	cond     sync.Cond
}

// NewLot returns a lot at the short spin budget.
func NewLot() *Lot {
	l := &Lot{}
	l.cond.L = &l.mu
	l.spins.Store(spinShared)
	return l
}

// Calibrate sets the spin budget for a party of the given size: long when
// every party can hold a P of its own, short when the party oversubscribes
// GOMAXPROCS. Reading GOMAXPROCS takes a runtime lock, so a machine
// calibrates as each kernel region opens, not at every wait.
func (l *Lot) Calibrate(parties int) {
	n := int32(spinShared)
	if parties <= runtime.GOMAXPROCS(0) {
		n = spinDedicated
	}
	l.spins.Store(n)
}

// Await returns true once word holds want, or false once abort is set;
// abort is nil for a wait that cannot be aborted. Abort is checked only
// past the spin phase, so that phase stays a loop of loads, and whoever
// sets abort must then call Wake.
func (l *Lot) Await(word *atomic.Uint32, want uint32, abort *atomic.Bool) bool {
	for n := l.spins.Load(); n > 0; n-- {
		if word.Load() == want {
			return true
		}
	}
	return l.yieldThenPark(word, want, abort)
}

// yieldThenPark is Await past its spin phase.
func (l *Lot) yieldThenPark(word *atomic.Uint32, want uint32, abort *atomic.Bool) bool {
	start := time.Now()
	for word.Load() != want {
		if abort != nil && abort.Load() {
			return false
		}
		if time.Since(start) < parkAfter {
			runtime.Gosched()
		} else {
			l.park(word, want, abort)
		}
	}
	return true
}

// park sleeps until word holds want or abort is set. It registers before
// its last check, under the lock Wake takes: a releaser either sees the
// registration and broadcasts once this waiter is in cond.Wait, or stored
// before the check saw it.
func (l *Lot) park(word *atomic.Uint32, want uint32, abort *atomic.Bool) {
	l.mu.Lock()
	l.sleepers.Add(1)
	for word.Load() != want && (abort == nil || !abort.Load()) {
		l.cond.Wait()
	}
	l.sleepers.Add(-1)
	l.mu.Unlock()
}

// Wake wakes every parked waiter to re-check what it awaits. Call it after
// the store that releases them.
func (l *Lot) Wake() {
	if l.sleepers.Load() != 0 {
		l.wake()
	}
}

func (l *Lot) wake() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}
