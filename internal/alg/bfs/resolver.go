package bfs

import (
	"sync/atomic"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
)

// RunResolver executes the Figure 3 BFS with the concurrent write handled
// by an arbitrary cw.Resolver, under the machine's default execution
// backend. It is the generic entry point: slightly slower than Run (one
// closure per winning write), and therefore not what the timing figures
// use, but it composes with any resolver — in particular the chaos
// matrix's sticky-loser resolver, which re-drives lost claims.
//
// The resolver must be fresh (or ResetRange over all targets must have
// been applied) and must span the graph's vertices: its cells are not
// declared to the machine (Machine.Stamp), so a rewind of the round ids
// between two calls would leave a reused CAS-LT resolver's stamps
// outranking the new ids. Prepare must have been called first.
func (k *Kernel) RunResolver(r cw.Resolver) Result {
	return k.RunResolverExec(k.m.Exec(), r)
}

// RunResolverExec is RunResolver under an explicit execution backend.
func (k *Kernel) RunResolverExec(e machine.Exec, r cw.Resolver) Result {
	if r.Len() < k.n {
		panic("bfs: resolver smaller than the vertex set")
	}
	offsets, targets := k.g.Offsets(), k.g.Targets()
	needsReset := r.Method().NeedsReset()
	var depth uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		rec := ctx.Metrics()
		progress := ctx.Flag()
		L := uint32(0)
		for {
			progress.Set(L+1, 0) // prime next level's flag (common CW)
			round := ctx.NextRound()
			ctx.Range(k.n, func(lo, hi, w int) {
				sh := rec.Shard(w)
				prog := false
				for v := lo; v < hi; v++ {
					if atomic.LoadUint32(&k.level[v]) != L {
						continue
					}
					for j := offsets[v]; j < offsets[v+1]; j++ {
						u := targets[j]
						if atomic.LoadUint32(&k.visited[u]) != 0 {
							continue
						}
						v := v
						if sh.Claim(int(u), round, r.DoOutcome(int(u), round, func() {
							k.parent[u] = uint32(v)
							k.selEdge[u] = j
							atomic.StoreUint32(&k.visited[u], 1)
							atomic.StoreUint32(&k.level[u], L+1)
						})) {
							prog = true
						}
					}
				}
				if prog {
					progress.Set(L, 1)
				}
			})
			if progress.Get(L) == 0 {
				if ctx.Worker() == 0 {
					depth = L
				}
				break
			}
			if needsReset {
				ctx.Range(k.n, func(lo, hi, _ int) { r.ResetRange(lo, hi) })
			}
			L++
		}
	})
	return k.result(int(depth))
}
