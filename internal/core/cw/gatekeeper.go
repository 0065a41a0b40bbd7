package cw

import "sync/atomic"

// Gate is the gatekeeper (atomic prefix-sum) conflict-resolution word of
// Vishkin, Caragea and Lee, as reproduced in the paper's Figure 2: every
// thread attempting the concurrent write performs an atomic fetch-and-add on
// the gatekeeper, and the single thread that observed zero wins.
//
// The zero value is an open gate. After a concurrent-write round completes,
// the gate must be re-zeroed (Reset) before the guarded target can host
// another concurrent write — the O(N)-work re-initialization pass that the
// paper identifies as one of the method's two fundamental costs. The other
// is that every attempt executes an atomic read-modify-write even long after
// a winner exists, serializing all attempts on the cell's cache line.
//
// The gatekeeper and gatekeeper-checked kernel variants and resolvers run
// through Gate in timed benchmarks; the operation counts of the Section 6
// experiment come from the same calls, recorded on the metrics shards.
type Gate struct {
	n atomic.Uint32
}

// TryEnter performs the atomic capture `x = gatekeeper; gatekeeper++` and
// reports whether the caller saw zero, i.e. won the concurrent write. It is
// the paper's canConWriteAtomic (Figure 2).
func (g *Gate) TryEnter() bool {
	return g.n.Add(1) == 1
}

// TryEnterChecked is TryEnter with the load pre-check the paper suggests as
// a mitigation: once the gatekeeper is observed non-zero the atomic
// instruction is skipped entirely. A winner still exists and is unique; only
// the losers' fetch-and-adds are (mostly) avoided.
func (g *Gate) TryEnterChecked() bool {
	if g.n.Load() != 0 {
		return false
	}
	return g.n.Add(1) == 1
}

// Entered reports whether any thread has won this gate since the last Reset.
// It is only meaningful after a synchronization point.
func (g *Gate) Entered() bool { return g.n.Load() != 0 }

// Attempts returns the number of TryEnter calls (and of TryEnterChecked
// calls that reached the atomic) since the last Reset. It is only meaningful
// after a synchronization point; the paper's method does not use it, but it
// is handy in tests and instrumentation.
func (g *Gate) Attempts() uint32 { return g.n.Load() }

// Reset re-opens the gate. It must not race with TryEnter; kernels call it
// in a dedicated parallel pass between rounds, after a barrier.
func (g *Gate) Reset() { g.n.Store(0) }
