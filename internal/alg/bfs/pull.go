package bfs

import (
	"sync/atomic"

	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/graph"
)

// Direction-optimizing BFS (Beamer, Asanović, Patterson, SC'12) on top of
// the CAS-LT kernel.
//
// The push formulations above relax every arc out of the frontier, and
// each discovery is a *common concurrent write*: several frontier vertices
// may discover the same u in one round, so the tuple write needs a CW
// method. The pull (bottom-up) formulation inverts the loop: every
// still-unreached vertex u scans its own adjacency list for a neighbor at
// the current level and, on success, writes its *own* tuple
// (Parent[u], SelEdge[u], Visited[u], Level[u]). Exactly one virtual
// processor writes each location — an *exclusive* write in PRAM terms — so
// no CAS-LT claim (and no round id) is needed at all. That makes pull the
// repo's EW ablation point against the paper's CW methods: same traversal,
// same tuple, no write contention by construction.
//
// Pull pays for that by touching every unreached vertex each level; it wins
// only when the frontier's arc count dwarfs the unexplored arc count,
// because most pull scans then terminate after a few arcs (the first
// neighbor probed is already at level L). The hybrid driver switches
// per level on Beamer's heuristic: push→pull when the frontier's outgoing
// arcs m_f exceed the unexplored arcs m_u / α, and pull→push when the
// frontier shrinks below N/β vertices. Each level is still one PRAM round
// bracketed by region barriers; only the loop *shape* (and hence the CW
// class) changes between rounds, never the round protocol around it. The
// per-level direction decision must be SPMD-consistent, so every worker
// tracks (m_f, m_u, direction) in worker-local variables updated from
// shared state only after the previous level's closing barrier published
// it — all workers therefore compute the identical decision sequence.
//
// SelEdge direction: a push discovery records the arc parent→u, a pull
// discovery the arc u→parent (the arc the scan actually examined — the
// reverse arc need not exist at a findable index in a directed CSR).
// ValidateBidir accepts either orientation; the strict push validator
// applies to push-only runs.

const (
	// HybridAlpha is the push→pull threshold: switch when
	// m_f * HybridAlpha > m_u (frontier arcs outgrow unexplored arcs/α).
	HybridAlpha = 14
	// HybridBeta is the pull→push threshold: switch back when the frontier
	// holds fewer than N/HybridBeta vertices.
	HybridBeta = 24
)

// NextDirection applies the Beamer switch with hysteresis: pull reports
// whether the *previous* level ran bottom-up; the return value directs the
// next level. mf is the arc count out of the current frontier, mu the arc
// count out of still-unvisited vertices, nf the frontier vertex count.
// Exported so the bench harness's deterministic work model replays the
// hybrid's direction decisions with the kernel's own rule.
func NextDirection(pull bool, mf, mu, nf, n uint64) bool {
	if !pull {
		return mf*HybridAlpha > mu
	}
	return nf*HybridBeta >= n
}

// oneWorkerGrain is the push work, in units of one per frontier vertex
// plus one per arc, below which a vertex-balanced, non-stealing push level
// runs on worker 0 alone. It sits at the measured crossover: on a 2-vCPU
// host at P=2, bfs-frontier on Grid2D(2^16/w, w) ran levels averaging up
// to 78 units 1.3x to 1.8x faster on one worker than split, 1.21x at 230
// units and 1.08x at 265, while splitting won from 283 units (by 4%, and
// by 25% at 419). The crossover at larger P is not measured; splitting
// gains more there, so it may lie lower.
const oneWorkerGrain = 256

// OneWorkerLevel reports whether a vertex-balanced, non-stealing push
// level runs on worker 0 alone: its work, counted as the work models count
// it (nf + mf), is below oneWorkerGrain. Exported so the bench harness's
// stealing model replays the push partition with the kernel's own rule.
func OneWorkerLevel(nf, mf uint64) bool { return nf+mf < oneWorkerGrain }

// pullLevel runs one bottom-up level over worker range [lo, hi): each
// still-unreached vertex scans its arcs for a neighbor at level L and
// claims itself for level L+1. level[u] is written only by the worker that
// owns u's shard (shards are static across levels), so the filter read is
// plain; neighbor levels are cross-worker and read atomically. Returns
// whether anything was discovered. out, if non-nil, collects each
// discovery (the hybrid driver's next frontier).
func (k *Kernel) pullLevel(lo, hi int, L uint32, out *discBuf) bool {
	offsets, targets := k.g.Offsets(), k.g.Targets()
	progress := false
	for u := lo; u < hi; u++ {
		if k.level[u] != Unreached {
			continue
		}
		for j := offsets[u]; j < offsets[u+1]; j++ {
			v := targets[j]
			if atomic.LoadUint32(&k.level[v]) == L {
				k.parent[u] = v
				k.selEdge[u] = j
				atomic.StoreUint32(&k.visited[u], 1)
				atomic.StoreUint32(&k.level[u], L+1)
				progress = true
				if out != nil {
					out.add(L+1, uint32(u), offsets[u+1]-offsets[u])
				}
				break
			}
		}
	}
	return progress
}

// pullLevelBits is pullLevel over the bit-packed representation: the
// unreached filter reads visBits and the neighbor-membership probe reads
// curBits (512 vertices per cache line each, versus 16 for the word
// arrays — the point of the bitmap variant). A discovery sets the vertex's
// bit in visBits and nextBits by fetch-OR; the bits are common CWs (every
// writer stores "set"), and since u is shard-owned this level the write is
// in fact exclusive — the OR only arbitrates word aliasing with the 63
// neighboring bits. level/parent/selEdge are written exactly as in
// pullLevel, so the output arrays stay byte-identical.
func (k *Kernel) pullLevelBits(lo, hi int, L uint32, out *discBuf) bool {
	offsets, targets := k.g.Offsets(), k.g.Targets()
	progress := false
	for u := lo; u < hi; u++ {
		if k.visBits.Test(u) {
			continue
		}
		for j := offsets[u]; j < offsets[u+1]; j++ {
			v := targets[j]
			if k.curBits.Test(int(v)) {
				k.parent[u] = v
				k.selEdge[u] = j
				k.visBits.Set(u)
				k.nextBits.Set(u)
				atomic.StoreUint32(&k.level[u], L+1)
				progress = true
				if out != nil {
					out.add(L+1, uint32(u), offsets[u+1]-offsets[u])
				}
				break
			}
		}
	}
	return progress
}

// requireSymmetric guards the bottom-up variants: pull scans a vertex's
// *out*-arcs to find a parent, which finds the in-neighbors only when the
// CSR stores both directions.
func (k *Kernel) requireSymmetric() {
	if !k.g.Undirected() {
		panic("bfs: pull/hybrid BFS requires an undirected (symmetric) graph")
	}
}

// RunCASLTPull executes a pure bottom-up BFS under the machine's default
// execution backend. Prepare must have been called first. Every level
// sweeps all unreached vertices (under the kernel's balance policy), so
// this is the ablation endpoint, not the practical kernel — use
// RunCASLTHybrid for that. No claim is made: all writes are exclusive,
// though each level draws its round id like every BFS level.
func (k *Kernel) RunCASLTPull() Result { return k.RunCASLTPullExec(k.m.Exec()) }

// RunCASLTPullExec is RunCASLTPull under an explicit execution backend.
func (k *Kernel) RunCASLTPullExec(e machine.Exec) Result {
	k.requireSymmetric()
	if k.bitmap {
		return k.runPullBitmap(e)
	}
	// Pull's writes are exclusive (each vertex writes only its own tuple),
	// so there are no selection attempts to record — the shard is unused.
	depth := k.runLevels(e, func(lo, hi, _ int, L, _ uint32, _ *metrics.Shard) bool {
		return k.pullLevel(lo, hi, L, nil)
	}, false)
	return k.result(int(depth))
}

// runPullBitmap is the bit-packed pure pull driver: the level-membership
// set lives in double-buffered bitmaps (curBits holds level L, discoveries
// OR into nextBits), swapped in a Single and followed by an O(N/64)
// clearing round of the consumed buffer. Per level that is three region
// rounds — sweep, swap, clear — versus runLevels' one, but the sweep (the
// part proportional to arcs) now reads 32× denser membership state.
func (k *Kernel) runPullBitmap(e machine.Exec) Result {
	if k.balance == graph.BalanceEdge {
		k.ensureArcBounds() // allocate outside the region
	}
	k.curBits.Set(int(k.source))
	var depth uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		progress := ctx.Flag()
		L := uint32(0)
		for {
			progress.Set(L+1, 0) // prime next level's flag (common CW)
			ctx.NextRound()      // a level is one round, as in runLevels
			k.ctxSweep(ctx, func(lo, hi, w int) {
				if k.pullLevelBits(lo, hi, L, nil) {
					progress.Set(L, 1)
				}
			})
			if progress.Get(L) == 0 {
				if ctx.Worker() == 0 {
					depth = L
				}
				break
			}
			ctx.Single(func() { k.curBits, k.nextBits = k.nextBits, k.curBits })
			// Clear the consumed buffer (now nextBits) for level L+1's
			// discoveries; sharded bit clears are word-boundary safe.
			ctx.Range(k.n, func(lo, hi, _ int) { k.nextBits.ResetRange(lo, hi) })
			L++
		}
	})
	return k.result(int(depth))
}

// RunCASLTHybrid executes the direction-optimizing BFS under the machine's
// default execution backend: push levels are the CAS-LT frontier
// relaxation (edge- or vertex-balanced), pull levels the bottom-up scan,
// chosen per level by NextDirection. The explicit frontier is maintained
// through both directions; m_u starts at the graph's arc count minus the
// source's degree and decreases by each level's discovered arc count.
// Prepare must have been called first.
func (k *Kernel) RunCASLTHybrid() Result { return k.RunCASLTHybridExec(k.m.Exec()) }

// RunCASLTHybridExec is RunCASLTHybrid under an explicit execution
// backend. A level is its push relaxation or its pull sweep, one round
// either way, plus the edge-balanced re-shard rounds of a push level under
// edge balance and the two push→pull conversion rounds of a bitmap pull
// level. No round assembles the next frontier: every worker reads it and
// its arc count from the discovery buffers in place, as in
// RunCASLTFrontierExec.
func (k *Kernel) RunCASLTHybridExec(e machine.Exec) Result {
	k.requireSymmetric()
	k.seedFrontier()
	if k.balance == graph.BalanceEdge {
		k.ensureArcBounds() // allocate outside the region
	}
	var depth uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		l := k.newLevelLoop(ctx)
		mu := uint64(k.g.NumArcs())
		pull := false
		L := uint32(0)
		for nf := l.load(L); nf > 0; nf = l.load(L) {
			mf := l.f.arcs
			mu -= mf
			pull = NextDirection(pull, mf, mu, uint64(nf), uint64(k.n))
			if pull {
				l.pull()
			} else {
				l.push()
			}
			L++
		}
		if ctx.Worker() == 0 {
			depth = L - 1 // the last non-empty level
		}
	})
	return k.result(int(depth))
}
