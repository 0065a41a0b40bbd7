package cc

import (
	"math/bits"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
)

// This file implements Reif's random-mate connected components as a second
// arbitrary-CW algorithm (an extension beyond the paper's benchmarks; the
// paper's conclusion calls for broader CRCW algorithm coverage). Each
// iteration every live root flips a fair coin; every edge whose endpoints
// lie under a head root and a tail root hooks the head root beneath the
// tail root — an arbitrary concurrent write per head root, guarded here by
// CAS-LT — followed by pointer jumping. Heads hook onto tails and tails
// never hook, so a round's hook graph is trivially acyclic (no directional
// id trick needed), and each component contracts to one vertex in O(log n)
// expected iterations.

// splitmix64 is a fixed-increment hash used to derive deterministic,
// uncorrelated per-(iteration, vertex) coin flips without shared RNG
// state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// coin returns the deterministic coin flip of vertex v in iteration it for
// the given seed: true = head.
func coin(seed uint64, it uint32, v uint32) bool {
	return splitmix64(seed^uint64(it)<<32^uint64(v))&1 == 1
}

// RunRandMate executes random-mate connected components with
// CAS-LT-guarded hooking under the machine's default execution backend.
// Prepare must have been called first. Like the Awerbuch–Shiloach runs it
// fills the hook records, so Validate applies unchanged. seed makes the
// coin flips deterministic.
func (k *Kernel) RunRandMate(seed uint64) Result {
	return k.RunRandMateExec(k.m.Exec(), seed)
}

// RunRandMateExec is RunRandMate under an explicit execution backend.
func (k *Kernel) RunRandMateExec(e machine.Exec, seed uint64) Result {
	// A generous bound: random mate halves the expected live-root count
	// per iteration; exceeding ~64 + 8 log2 n is overwhelmingly a bug (or
	// an astronomically unlucky seed) rather than a slow input.
	maxIter := 8*bits.Len(uint(k.n)) + 64

	if k.bitmap && k.hookBits == nil {
		k.hookBits = cw.NewBitArray(k.n) // allocate outside the region
	}
	d, dprev, offsets, targets := k.d, k.dprev, k.g.Offsets(), k.g.Targets()
	// The region's Flag tracks per-iteration progress; cross-tree liveness
	// needs a second rotating flag, declared driver-side so every SPMD copy
	// shares it.
	var live exec.Flag
	var iters uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		rec := ctx.Metrics()
		changed := ctx.Flag()
		it := uint32(0)
		for {
			changed.Set(it+1, 0) // prime next iteration's flags (common CW)
			live.Set(it+1, 0)
			round := ctx.NextRound()

			// Snapshot the forest: hooks read phase-start roots only. In
			// bitmap mode the same round clears the hook bits — the
			// per-iteration reinit the bit representation reintroduces, at
			// 1/64 of a word array's store count (sharded clears are
			// word-boundary safe).
			ctx.Range(k.n, func(lo, hi, _ int) {
				copy(dprev[lo:hi], d[lo:hi])
				if k.bitmap {
					k.hookBits.ResetRange(lo, hi)
				}
			})

			// Hooking: arcs whose source's root is a head and whose target's
			// root is a tail hook head beneath tail. dprev[u] is u's parent at
			// phase start; it equals u's root only when u is in a star, so —
			// unlike Awerbuch–Shiloach — random mate additionally requires the
			// parent to be a root (dprev[dprev[u]] == dprev[u]), which is the
			// textbook formulation (hooking is attempted between mated roots).
			// live records whether any arc still connects two distinct roots:
			// an unlucky coin assignment can produce a hook-free iteration
			// that must NOT terminate the loop while such arcs remain.
			// The hook body accumulates its progress/cross flags per share
			// (or per stolen chunk — the flag sets are idempotent common
			// writes, so chunk granularity changes nothing). It walks its
			// arcs source by source from graph.ArcSource(lo), so a stolen
			// chunk may start inside a hub's adjacency list; u's root and
			// coin are read once per source.
			hook := func(lo, hi, w int) {
				sh := rec.Shard(w)
				progress, cross := false, false
				for u, j := k.g.ArcSource(lo), lo; j < hi; u++ {
					end := min(int(offsets[u+1]), hi)
					ru := dprev[u]
					if dprev[ru] != ru {
						j = end
						continue // u's parent is not a root
					}
					head := coin(seed, it, ru)
					for ; j < end; j++ {
						rv := dprev[targets[j]]
						if dprev[rv] != rv || ru == rv {
							continue // v's parent is not a root, or same tree
						}
						cross = true
						if !head || coin(seed, it, rv) {
							continue // not a head-to-tail pairing this iteration
						}
						// Winner selection: one hook per head root per
						// iteration. The bit-packed claim is a fetch-OR ("r
						// hooked" is a common write); the word claim stamps
						// the round id.
						var o cw.Outcome
						if k.bitmap {
							o = k.hookBits.TryClaimBitOutcome(int(ru))
						} else {
							o = k.cells.TryClaimOutcome(int(ru), round)
						}
						if sh.Claim(int(ru), round, o) && k.commit(int(ru), uint32(j), rv) {
							progress = true
						}
					}
				}
				if progress {
					changed.Set(it, 1)
				}
				if cross {
					live.Set(it, 1)
				}
			}
			if k.steal {
				ctx.StealRange(len(targets), hook)
			} else {
				ctx.Range(len(targets), hook)
			}

			k.shortcut(ctx, changed, it)

			it++
			if changed.Get(it-1) == 0 && live.Get(it-1) == 0 {
				if ctx.Worker() == 0 {
					iters = it
				}
				break
			}
			if int(it) > maxIter {
				panic("cc: random mate did not converge (bug or pathological seed)")
			}
		}
	})
	return Result{Labels: k.d, HookEdge: k.hookEdge, Iterations: int(iters)}
}
