// Package sched partitions PRAM parallel-for index spaces over a fixed set
// of physical workers.
//
// A PRAM algorithm step assigns one virtual processor to each of n indices;
// a physical machine has only P workers. Following Brent's scheduling
// theorem (the paper's Section 6), the step's T(n) = n/P cost is achieved by
// work-sharing the index space over the workers. How indices map to workers
// affects locality and load balance but not correctness; this package
// offers the three standard policies plus a guided variant, mirroring
// OpenMP's schedule(static), schedule(static,1), schedule(dynamic,c) and
// schedule(guided) clauses:
//
//   - Block:   worker w owns one contiguous chunk of ≈n/P indices.
//   - Cyclic:  worker w owns indices w, w+P, w+2P, … (fine interleaving).
//   - Dynamic: workers repeatedly grab fixed-size chunks from a shared
//     atomic cursor; balances irregular per-index work at the cost of one
//     atomic fetch-add per chunk.
//   - Guided:  like Dynamic but with geometrically shrinking chunks.
//
// All policies produce exact partitions: every index in [0, n) is visited
// exactly once across the party.
//
// Everything here is a PRODUCTION path: the machine's team regions and
// the trace replay partition every work-shared loop through
// this package (Block by default; BlockRange's boundaries are part of the
// exec contract — kernels like the frontier BFS re-derive them, and the
// trace backend replays them, so all backends must agree). The weighted
// variants (weighted.go) serve the edge-balanced partitioning axis.
// Nothing in this package is test-only.
package sched

import "sync/atomic"

// Policy selects a partitioning strategy.
type Policy int

const (
	// Block assigns each worker one contiguous range.
	Block Policy = iota
	// Cyclic assigns indices round-robin with stride = party size.
	Cyclic
	// Dynamic hands out fixed-size chunks from a shared cursor.
	Dynamic
	// Guided hands out geometrically shrinking chunks from a shared cursor.
	Guided
	// Stealing seeds per-worker deques with the chunks of each worker's
	// block share; idle workers steal chunks from random victims. No shared
	// cursor on the common path — see Stealer.
	Stealing
)

// Policies lists all policies in presentation order.
var Policies = []Policy{Block, Cyclic, Dynamic, Guided, Stealing}

// String names the policy as the -policy flag spells it ("block",
// "cyclic", "dynamic", "guided", "stealing").
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	case Stealing:
		return "stealing"
	default:
		return "unknown-policy"
	}
}

// ParsePolicy converts a policy name (as produced by String) back to a
// Policy.
func ParsePolicy(s string) (Policy, bool) {
	for _, p := range Policies {
		if p.String() == s {
			return p, true
		}
	}
	return 0, false
}

// DefaultChunk is the chunk size used by Dynamic when the caller passes
// chunk <= 0, and the minimum chunk for Guided.
const DefaultChunk = 256

// BlockRange returns the contiguous range [lo, hi) owned by worker w of a
// party of p over the index space [0, n). Ranges of all workers partition
// [0, n) exactly, and sizes differ by at most one.
func BlockRange(n, p, w int) (lo, hi int) {
	q, r := n/p, n%p
	// The first r workers get q+1 indices, the rest get q.
	if w < r {
		lo = w * (q + 1)
		return lo, lo + q + 1
	}
	lo = r*(q+1) + (w-r)*q
	return lo, lo + q
}

// Cursor is the shared state of the Dynamic and Guided policies for one
// parallel loop instance: a monotone claim cursor over [0, n).
type Cursor struct {
	next    atomic.Int64
	n       int64
	parties int64
	chunk   int64
	guided  bool
	_       [16]byte // keep the hot counter away from neighbours
}

// NewCursor returns a cursor over [0, n) for a party of p workers.
// For Dynamic, chunk is the grab size (DefaultChunk if <= 0). For Guided,
// chunk is the minimum grab size.
func NewCursor(policy Policy, n, p, chunk int) *Cursor {
	// Sanitize here rather than in every caller: a nonsensical chunk falls
	// back to the default, a negative index space is empty, and a party
	// larger than the index space (n < p) must not push Guided's
	// remaining/parties quotient to zero-size grabs — Next floors every
	// grab at the minimum chunk, so oversubscribed parties still make
	// progress one chunk at a time.
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if n < 0 {
		n = 0
	}
	return &Cursor{
		n:       int64(n),
		parties: int64(max(p, 1)),
		chunk:   int64(chunk),
		guided:  policy == Guided,
	}
}

// Next claims the next chunk, returning [lo, hi) and ok=false when the
// index space is exhausted. Safe for concurrent use by all workers.
func (c *Cursor) Next() (lo, hi int, ok bool) {
	size := c.chunk
	if c.guided {
		// Guided: chunk ≈ remaining / parties, floored at the minimum.
		cur := c.next.Load()
		remaining := c.n - cur
		if remaining <= 0 {
			return 0, 0, false
		}
		size = remaining / c.parties
		if size < c.chunk {
			size = c.chunk
		}
	}
	start := c.next.Add(size) - size
	if start >= c.n {
		return 0, 0, false
	}
	end := start + size
	if end > c.n {
		end = c.n
	}
	return int(start), int(end), true
}

// Reset rewinds the cursor to the start of a fresh index space [0, n),
// keeping the policy, party size and chunk. It lets a long-lived loop
// context (e.g. a team-mode kernel) reuse one cursor allocation across many
// rounds instead of allocating one per round. Reset is NOT safe against
// concurrent Next calls: the caller must publish it to the other workers
// through an acquire/release edge (a barrier, or the epoch word the
// machine's team loops use) before any of them claims.
func (c *Cursor) Reset(n int) {
	c.n = int64(n)
	c.next.Store(0)
}

// For iterates worker w's share of [0, n) under the given policy, invoking
// body(i) exactly once for each owned index. For Dynamic and Guided the
// caller must pass the loop's shared Cursor; for Block and Cyclic, cur may
// be nil.
func For(policy Policy, cur *Cursor, n, p, w int, body func(i int)) {
	switch policy {
	case Block:
		lo, hi := BlockRange(n, p, w)
		for i := lo; i < hi; i++ {
			body(i)
		}
	case Cyclic:
		for i := w; i < n; i += p {
			body(i)
		}
	case Dynamic, Guided:
		for {
			lo, hi, ok := cur.Next()
			if !ok {
				return
			}
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
	case Stealing:
		// Work stealing needs per-loop deque state (a Stealer), which the
		// machine owns and drives directly. Callers that reach this
		// cursor-shaped entry point (serial fallbacks, p == 1) get the
		// stealing policy's seed order, which is exactly the block
		// partition: each worker's deque is seeded with its block share,
		// and an uncontended owner drains it in ascending index order.
		lo, hi := BlockRange(n, p, w)
		for i := lo; i < hi; i++ {
			body(i)
		}
	default:
		panic("sched: unknown policy " + policy.String())
	}
}
