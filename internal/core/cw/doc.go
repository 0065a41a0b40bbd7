// Package cw implements the concurrent-write (CW) conflict-resolution
// primitives of the CRCW PRAM model on ordinary shared-memory multicores,
// following Ghanim, ElWasif and Bernholdt, "Implementing Arbitrary/Common
// Concurrent Writes of CRCW PRAM" (ICPP 2021).
//
// In the CRCW PRAM model, many processors may write the same memory cell in
// the same time step. A conflict-resolution rule decides which write is
// observed by subsequent reads:
//
//   - Common:    all writers write the same value, any of them may commit it.
//   - Arbitrary: writers may write different values; exactly one, chosen
//     arbitrarily, commits.
//   - Priority:  the writer with the highest priority (e.g. smallest value or
//     smallest processor id) commits.
//
// The paper's key primitive is CAS-LT (compare-and-swap-if-less-than), here
// the Cell type: one auxiliary word per concurrent-write target holding the
// id of the last round in which the target was written. A thread may perform
// the concurrent write for round r if and only if it observes the auxiliary
// word to be < r and then wins a single compare-and-swap raising it to r.
// Every other competitor — and, crucially, every thread arriving after a
// winner exists — fails the cheap load pre-check and never executes an atomic
// instruction at all. Advancing to the next round requires no
// re-initialization: callers simply use a larger round id, the paper's loop
// counter, and therefore free. Here the ids come from one source, the
// machine's round counter (machine.Machine.NextRound and exec.Ctx.NextRound),
// which rewinds them, resetting the arrays declared with Machine.Stamp,
// before the 32-bit stamps could wrap.
//
// For comparison the package also provides the two prior-practice mechanisms
// evaluated by the paper:
//
//   - Gate / GateChecked: the gatekeeper (atomic prefix-sum) method of
//     Vishkin et al. — every attempt performs an atomic fetch-and-add and the
//     thread that saw zero wins. The gatekeeper must be re-zeroed before the
//     cell can host another concurrent write, an O(N) parallel pass per round
//     for an N-cell kernel. GateChecked adds the load pre-check the paper
//     suggests as a mitigation.
//
//   - the naive method: issue all stores and let the cache-coherence
//     hardware serialize them. Safe only for common concurrent writes of a
//     single machine word (all writers store identical bytes); unsafe for
//     arbitrary writes and for multi-word payloads, where it can commit a
//     torn mixture of competing writes. See package memcheck for a checker
//     that detects such misuse.
//
//   - MutexArray: the "trivial but bad" critical-section implementation the
//     paper dismisses, kept as a baseline.
//
// Beyond the paper's two rules, PriorityMinCell/PriorityMaxCell implement the
// stronger Priority CRCW rule with a bounded CAS loop, and AdderCell /
// MaxCell / MinCell implement combining concurrent writes (Fetch&Add-style
// reductions), both listed by the paper as natural extensions.
//
// # Synchrony requirements
//
// Cell.TryClaim is the paper's Figure 1 verbatim: it is single-shot and is
// correct under the lock-step discipline the paper assumes — a
// synchronization barrier separates a concurrent-write step from any
// dependent read and from the next concurrent-write round, so all threads
// racing on one cell use the same round id. Cell.Claim is a retrying variant
// that additionally tolerates writers from different (monotone) rounds racing
// on the same cell, at the cost of a CAS loop; it is provided for relaxed,
// non-lock-step usage and for the ablation study.
package cw
