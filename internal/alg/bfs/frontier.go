package bfs

import (
	"sync/atomic"

	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

// This file implements the frontier-based refinement of the paper's BFS:
// instead of sweeping all N vertices per level to find the frontier (the
// Rodinia formulation of Figure 3, whose per-level cost is Θ(N) even for
// tiny frontiers), the kernel carries the frontier explicitly. Winners
// append their discoveries to per-worker buffers, and the next level reads
// those buffers in place. The concurrent-write handling is unchanged
// (CAS-LT with one round id per level), so the variant isolates the
// algorithmic sweep cost from the CW method cost; the ablation benchmark
// compares the two formulations.
//
// The level loop is one SPMD body over exec.Ctx, and a level is one region
// round: the relaxation's closing barrier is the one synchronization point
// the paper places between a concurrent-write round and its dependent
// reads. After it every worker derives the next frontier's P buffer
// offsets itself, from the same shared buffers, so nothing but that barrier
// sits between two levels: no serial section, no copy. The buffers come in
// two sets by level parity (see discBuf), which is what lets level L+1
// refill the buffers level L read without a barrier of its own.
//
// Under edge balance the frontier itself is re-sharded every level: the
// frontier vertices' degrees are block-scanned in-region (two aligned Range
// passes around a Single, the textbook block scan) into an arc-prefix
// array, and each shard takes a near-equal-arc slice of it
// (sched.WeightedRange), so one hub on the frontier no longer serializes
// the level behind a single worker.
//
// Under vertex balance without stealing, a level whose work (frontier
// vertices plus their arcs) is below oneWorkerGrain, the grain set at the
// measured crossover, runs on worker 0 alone (OneWorkerLevel), as one
// Bounds round whose other shares are empty. Split across the team, such
// a level has every worker claim and write the same few lines of the
// claim cells, visited, level, parent and selEdge, and read the buffers
// another worker filled, so those lines cross cores every level for a
// handful of arcs. The level keeps its one step, its one barrier and its
// CAS-LT claims; only the partition changes, so results and round counts
// do not.

// discBuf is one worker's discovery buffer for one level parity. Level L's
// winners append to the executing worker's buffer in set (L+1)&1; level
// L+1 reads that set and refills the other one, whose last reads ended at
// level L's closing barrier. The buffer records the frontier level it
// holds, and readers skip a buffer whose record is not the level they
// read, so a worker that discovered nothing leaves nothing to reset.
type discBuf struct {
	level uint32 // frontier level of vs; Unreached before the run's first add
	arcs  uint64 // out-degree sum of vs: this buffer's share of m_f
	vs    []uint32
	// Workers append to their own buffers concurrently; 128 bytes keep
	// each buffer's header on cache lines of its own.
	_ [128 - 40]byte
}

// add appends discovery u, of out-degree deg, to the buffer of frontier
// level, first dropping whatever the buffer held for an earlier level.
func (b *discBuf) add(level, u, deg uint32) {
	if b.level != level {
		b.level, b.arcs, b.vs = level, 0, b.vs[:0]
	}
	b.vs = append(b.vs, u)
	b.arcs += uint64(deg)
}

// seedFrontier readies the discovery buffers for a run from the source:
// allocated on first use (with the edge-balanced scratch when the kernel
// is edge-balanced), every record reset, and the source placed in set 0 as
// level 0's frontier. The buffers are owned by the kernel and survive
// across runs, so repeated runs reuse grown capacity. Entry points call
// this before the region opens, so allocation never races.
func (k *Kernel) seedFrontier() {
	p := k.m.P()
	if k.disc[0] == nil {
		k.disc = [2][]discBuf{make([]discBuf, p), make([]discBuf, p)}
	}
	if k.balance == graph.BalanceEdge && len(k.cum) < k.n+1 {
		k.deg = make([]uint32, k.n)
		k.cum = make([]uint32, k.n+1)
		k.degPart = make([]uint32, p)
	}
	for _, set := range k.disc {
		for w := range set {
			set[w].level = Unreached
		}
	}
	k.disc[0][0].add(0, k.source, uint32(k.g.Degree(k.source)))
}

// frontierView is one SPMD copy's read-only view of a level's frontier:
// the buffers recorded for that level, concatenated in worker order, which
// keeps the frontier's order deterministic under the serial trace replay.
// Every copy loads its view after the previous level's closing barrier and
// computes the same offsets.
type frontierView struct {
	set  []discBuf
	off  []int  // off[w]: frontier index of set[w]'s first vertex; off[P]: frontier size
	arcs uint64 // out-degree sum of the frontier (m_f)
	seg  int    // buffer of the last lookup, where the next one starts
}

// load points the view at the buffers of set recorded for level and
// returns the frontier size.
func (f *frontierView) load(set []discBuf, level uint32) int {
	n, arcs := 0, uint64(0)
	for w := range set {
		f.off[w] = n
		if b := &set[w]; b.level == level {
			n += len(b.vs)
			arcs += b.arcs
		}
	}
	f.off[len(set)] = n
	f.set, f.arcs = set, arcs
	return n
}

// len returns the frontier size.
func (f *frontierView) len() int { return f.off[len(f.set)] }

// find returns the buffer holding frontier index i (0 <= i < len()). The
// search starts at the previous lookup's buffer, so a loop walking the
// frontier in order pays O(1) per vertex; stale buffers span no indices
// and are stepped over.
func (f *frontierView) find(i int) int {
	w := f.seg
	for i >= f.off[w+1] {
		w++
	}
	for i < f.off[w] {
		w--
	}
	f.seg = w
	return w
}

// at returns the vertex at frontier index i.
func (f *frontierView) at(i int) uint32 {
	w := f.find(i)
	return f.set[w].vs[i-f.off[w]]
}

// segment returns the vertices at frontier indices [i, i+len) for the
// longest run below hi that lies in one buffer (i < hi <= len()), so a
// chunk-shaped loop walks the buffers one segment at a time.
func (f *frontierView) segment(i, hi int) []uint32 {
	w := f.find(i)
	return f.set[w].vs[i-f.off[w] : min(hi, f.off[w+1])-f.off[w]]
}

// levelLoop is one SPMD copy's state for the frontier drivers: the current
// level and its round id, the copy's frontier view, and the loop bodies
// over them. The bodies are bound once per region and read the level
// through the struct, so running a level allocates nothing.
type levelLoop struct {
	k                *Kernel
	ctx              exec.Ctx
	rec              *metrics.Recorder
	offsets, targets []uint32
	L, round         uint32
	f                frontierView

	// solo is the one-worker level's shard boundaries: worker 0 takes the
	// whole frontier, every other share is empty.
	solo []int

	relaxAt, relaxShard, markAt           func(i, w int)
	relaxChunk, sumDegrees, prefixDegrees func(lo, hi, w int)
	clearCur, pullSweep                   func(lo, hi, w int)
	scanDegrees                           func()
}

// newLevelLoop builds ctx's level loop, binding every loop body the push
// and pull levels use.
func (k *Kernel) newLevelLoop(ctx exec.Ctx) *levelLoop {
	p := ctx.P()
	l := &levelLoop{
		k: k, ctx: ctx, rec: ctx.Metrics(),
		offsets: k.g.Offsets(), targets: k.g.Targets(),
		f:    frontierView{off: make([]int, p+1)},
		solo: make([]int, p+1),
	}
	l.relaxAt = func(i, w int) { l.relax(l.f.at(i), w) }
	// The body of stealing chunks and of the one-worker level's share. The
	// executing worker owns the discovery buffer it appends to, so chunk
	// migration under stealing never moves a buffer between workers
	// mid-append. Stealing slots past the frontier are empty (see push).
	l.relaxChunk = func(lo, hi, w int) { l.relaxRange(lo, min(hi, l.f.len()), w) }

	// Edge balance. Pass 1: degrees plus each block's partial sum. Shares
	// map to workers block-wise under every backend, so the partial lands
	// in the share's own slot.
	l.sumDegrees = func(lo, hi, w int) {
		var s uint32
		for i := lo; i < hi; {
			for _, v := range l.f.segment(i, hi) {
				k.deg[i] = l.offsets[v+1] - l.offsets[v]
				s += k.deg[i]
				i++
			}
		}
		k.degPart[w] = s
	}
	// Serial P-element exclusive scan of the partials. Empty shares never
	// ran pass 1, so their stale slots are re-derived from the same block
	// partition the loops use.
	l.scanDegrees = func() {
		nf := l.f.len()
		var tot uint32
		for i := 0; i < p; i++ {
			if lo, hi := sched.BlockRange(nf, p, i); lo == hi {
				k.degPart[i] = 0
			}
			s := k.degPart[i]
			k.degPart[i] = tot
			tot += s
		}
		k.cum[nf] = tot
	}
	// Pass 2: same block ranges, so each share's partial lines up.
	l.prefixDegrees = func(lo, hi, w int) {
		run := k.degPart[w]
		for i := lo; i < hi; i++ {
			k.cum[i] = run
			run += k.deg[i]
		}
	}
	// One shard per slot; the executing worker owns the discovery buffer,
	// so this is balanced under any loop policy.
	l.relaxShard = func(shard, w int) {
		lo, hi := sched.WeightedRange(k.cum[:l.f.len()+1], p, shard)
		l.relaxRange(lo, hi, w)
	}

	// Pull levels (hybrid only). The bitmap push→pull conversion rebuilds
	// the level's membership bitmap from the frontier: a clearing round,
	// then one fetch-OR per frontier vertex.
	l.clearCur = func(lo, hi, _ int) { k.curBits.ResetRange(lo, hi) }
	l.markAt = func(i, _ int) { k.curBits.Set(int(l.f.at(i))) }
	if k.bitmap {
		l.pullSweep = func(lo, hi, w int) { k.pullLevelBits(lo, hi, l.L, l.out(w)) }
	} else {
		l.pullSweep = func(lo, hi, w int) { k.pullLevel(lo, hi, l.L, l.out(w)) }
	}
	return l
}

// load makes level L current and returns its frontier size. Call it after
// level L-1's closing barrier. A non-empty level is one CW round, whose
// claims carry the round id it draws here.
func (l *levelLoop) load(L uint32) int {
	l.L = L
	nf := l.f.load(l.k.disc[L&1], L)
	if nf > 0 {
		l.round = l.ctx.NextRound()
	}
	return nf
}

// out returns worker w's buffer for the current level's discoveries.
func (l *levelLoop) out(w int) *discBuf { return &l.k.disc[(l.L+1)&1][w] }

// relax relaxes frontier vertex v's arcs on worker w: CAS-LT winners write
// the discovery tuple and add the vertex to w's buffer for the next level.
func (l *levelLoop) relax(v uint32, w int) {
	k, offsets, targets := l.k, l.offsets, l.targets
	sh := l.rec.Shard(w)
	next := l.L + 1
	for j := offsets[v]; j < offsets[v+1]; j++ {
		u := targets[j]
		if k.bitmap {
			// Bit-packed path: the visited filter and the claim both live
			// in visBits. The filter Test plays the role of the word
			// path's visited load (unrecorded, zero RMWs); the claim's
			// own pre-check then mirrors the CAS-LT cell pre-check, so
			// cas_attempts/precheck_skips keep their meaning. The winning
			// fetch-OR needs no round id — "visited" is a common write —
			// and winner selection arbitrates the tuple exactly as the
			// round-stamped cell does.
			if k.visBits.Test(int(u)) {
				continue
			}
			if sh.Claim(int(u), l.round, k.visBits.TryClaimBitOutcome(int(u))) {
				k.parent[u] = v
				k.selEdge[u] = j
				atomic.StoreUint32(&k.level[u], next)
				l.out(w).add(next, u, offsets[u+1]-offsets[u])
			}
			continue
		}
		if atomic.LoadUint32(&k.visited[u]) != 0 {
			continue
		}
		if sh.Claim(int(u), l.round, k.cells.TryClaimOutcome(int(u), l.round)) {
			k.parent[u] = v
			k.selEdge[u] = j
			atomic.StoreUint32(&k.visited[u], 1)
			atomic.StoreUint32(&k.level[u], next)
			l.out(w).add(next, u, offsets[u+1]-offsets[u])
		}
	}
}

// relaxRange relaxes the frontier vertices at indices [lo, hi) on worker w.
func (l *levelLoop) relaxRange(lo, hi, w int) {
	for lo < hi {
		vs := l.f.segment(lo, hi)
		for _, v := range vs {
			l.relax(v, w)
		}
		lo += len(vs)
	}
}

// push runs the current level top-down: every frontier vertex relaxes its
// arcs. Partitioning follows the kernel's balance policy, and the level
// ends with its last loop's closing barrier. Under vertex balance without
// stealing, a level below oneWorkerGrain units of work runs on worker 0
// alone (OneWorkerLevel): split, its few state lines would cross cores
// every level.
func (l *levelLoop) push() {
	k, ctx, nf := l.k, l.ctx, l.f.len()
	if k.balance == graph.BalanceEdge && nf > 1 {
		ctx.Range(nf, l.sumDegrees)
		ctx.Single(l.scanDegrees)
		ctx.Range(nf, l.prefixDegrees)
		ctx.ForWorker(ctx.P(), l.relaxShard)
		return
	}
	if k.steal {
		// Work-stealing relaxation: chunks of the frontier migrate from
		// straggling workers (the ones that drew the hubs) to idle ones.
		// The loop spans at least P slots, those past the frontier empty,
		// so every worker's deque is seeded and a level's first claim is
		// always an owner's pop: a frontier smaller than P is not left to
		// thieves racing its owners.
		ctx.StealRange(max(nf, ctx.P()), l.relaxChunk)
		return
	}
	if OneWorkerLevel(uint64(nf), l.f.arcs) {
		for w := 1; w < len(l.solo); w++ {
			l.solo[w] = nf
		}
		ctx.Bounds(l.solo, l.relaxChunk)
		return
	}
	ctx.ForWorker(nf, l.relaxAt)
}

// pull runs the current level bottom-up (see pullLevel), collecting the
// discoveries into the same buffers a push level fills.
func (l *levelLoop) pull() {
	k, ctx := l.k, l.ctx
	if k.bitmap {
		ctx.Range(k.n, l.clearCur)
		ctx.ForWorker(l.f.len(), l.markAt)
	}
	k.ctxSweep(ctx, l.pullSweep)
}

// RunCASLTFrontier executes BFS with an explicit frontier and
// CAS-LT-guarded discovery tuples under the machine's default execution
// backend. Prepare must have been called first.
func (k *Kernel) RunCASLTFrontier() Result { return k.RunCASLTFrontierExec(k.m.Exec()) }

// RunCASLTFrontierExec is RunCASLTFrontier under an explicit execution
// backend.
func (k *Kernel) RunCASLTFrontierExec(e machine.Exec) Result {
	k.seedFrontier()
	var depth uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		l := k.newLevelLoop(ctx)
		L := uint32(0)
		for l.load(L) > 0 {
			l.push()
			L++
		}
		if ctx.Worker() == 0 {
			depth = L - 1 // the last non-empty level
		}
	})
	return k.result(int(depth))
}

// frontierStateBytes reports the capacity of the discovery buffers — the
// frontier variant's O(N) state — for tests asserting it stays linear.
func (k *Kernel) frontierStateBytes() int {
	b := 0
	for _, set := range k.disc {
		for w := range set {
			b += cap(set[w].vs) * 4
		}
	}
	return b
}
