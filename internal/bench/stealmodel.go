package bench

import (
	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/sched"
)

// This file extends the edge-balance work model (workmodel.go) along the
// scheduling-policy axis for the stealing sweep. The question it answers
// is the one a wall clock on an oversubscribed host cannot: with one core
// per worker, how long is the critical path of an irregular loop under
// each partitioning policy?
//
// The model replays each BFS variant's level structure (driven by the
// exact sequential levels, as in workmodel.go) and schedules each round's
// per-index costs (1 unit per index + 1 per arc examined) onto P model
// workers the way the policy would:
//
//   - block / cyclic: the static assignment is exact — each worker's time
//     is its share's summed cost, the round's critical path the maximum.
//   - dynamic / guided / stealing: chunks are assigned greedily in index
//     order to the earliest-available worker (the fluid limit of a shared
//     cursor or an idle thief: whoever is free claims next), and every
//     claim is charged an acquisition cost.
//
// The acquisition costs are the policies' structural difference, in the
// same abstract units as the work itself:
//
//   - grabCursor (16) per chunk for dynamic and guided: a fetch-add on a
//     cursor every worker hammers is a contended cache-line ping-pong,
//     tens of cycles against the ~1-cycle unit of an arc probe. This is
//     why dynamic must use big chunks (DefaultChunk = 256) — and big
//     chunks are exactly what strands a hub vertex in one worker's lap.
//   - grabDeque (2) per chunk for stealing: the owner's pop is an
//     uncontended load + store on its own line (the single CAS fires only
//     on the last element), and the occasional steal CAS amortizes over
//     the chunks it migrates. Cheap claims let stealing run the finer
//     sched.StealChunk geometry that splits a hub across the party.
//
// Crit sums the per-round maxima (including acquisition), Ideal the
// per-round ceil(total/P) with no acquisition — the same figure of merit
// as the edge-balance model, so Imbalance is comparable across sweeps.
const (
	grabCursor = 16
	grabDeque  = 2
)

// critChunks schedules costs[pos:pos+size] chunks (size chosen by next
// from the remaining count) onto p workers greedily in index order and
// returns the makespan. grab is charged per claimed chunk.
func critChunks(costs []uint64, p int, grab uint64, next func(remaining int) int) uint64 {
	busy := make([]uint64, p)
	n := len(costs)
	for pos := 0; pos < n; {
		w := 0
		for i := 1; i < p; i++ {
			if busy[i] < busy[w] {
				w = i
			}
		}
		size := next(n - pos)
		if size < 1 {
			size = 1
		}
		hi := pos + size
		if hi > n {
			hi = n
		}
		var s uint64
		for i := pos; i < hi; i++ {
			s += costs[i]
		}
		busy[w] += s + grab
		pos = hi
	}
	var max uint64
	for _, b := range busy {
		if b > max {
			max = b
		}
	}
	return max
}

// policyCrit returns the modelled critical path of one round whose
// per-index costs are given, under one scheduling policy. chunk is the
// machine's configured chunk size (machine.Chunk; <= 0 means
// sched.DefaultChunk, matching sched.NewCursor's sanitization).
func policyCrit(costs []uint64, pol sched.Policy, p, chunk int) uint64 {
	n := len(costs)
	if n == 0 {
		return 0
	}
	if chunk <= 0 {
		chunk = sched.DefaultChunk
	}
	switch pol {
	case sched.Block:
		var max uint64
		for w := 0; w < p; w++ {
			lo, hi := sched.BlockRange(n, p, w)
			var s uint64
			for i := lo; i < hi; i++ {
				s += costs[i]
			}
			if s > max {
				max = s
			}
		}
		return max
	case sched.Cyclic:
		busy := make([]uint64, p)
		for i, c := range costs {
			busy[i%p] += c
		}
		var max uint64
		for _, b := range busy {
			if b > max {
				max = b
			}
		}
		return max
	case sched.Dynamic:
		return critChunks(costs, p, grabCursor, func(int) int { return chunk })
	case sched.Guided:
		return critChunks(costs, p, grabCursor, func(remaining int) int {
			size := remaining / p
			if size < chunk {
				size = chunk
			}
			return size
		})
	case sched.Stealing:
		cs := sched.StealChunk(n, p, chunk)
		return critChunks(costs, p, grabDeque, func(int) int { return cs })
	default:
		panic("bench: no scheduling model for policy " + pol.String())
	}
}

// addSchedRound accumulates one modelled round: policy-scheduled critical
// path, acquisition-free ideal, and the raw total.
func (m *WorkModel) addSchedRound(costs []uint64, pol sched.Policy, p, chunk int) {
	var tot uint64
	for _, c := range costs {
		tot += c
	}
	if tot == 0 {
		return
	}
	m.Total += tot
	m.Crit += policyCrit(costs, pol, p, chunk)
	m.Ideal += (tot + uint64(p) - 1) / uint64(p)
}

// frontierCosts fills the model's cost scratch with the push cost of each
// frontier vertex: the index visit plus its arcs.
func (b *bfsModel) frontierCosts(f []uint32) []uint64 {
	costs := b.costScratch(len(f))
	for i, v := range f {
		costs[i] = 1 + uint64(b.g.Degree(v))
	}
	return costs
}

// pullCosts fills the scratch with the per-vertex cost of a bottom-up
// round at level L (the same case split as pullRound, per index instead of
// per shard).
func (b *bfsModel) pullCosts(L uint32) []uint64 {
	costs := b.costScratch(b.n)
	for v := 0; v < b.n; v++ {
		switch lv := b.levels[v]; {
		case lv <= L:
			costs[v] = 1
		case lv == L+1:
			costs[v] = 1 + uint64(b.firstHit[v])
		default:
			costs[v] = 1 + uint64(b.g.Degree(uint32(v)))
		}
	}
	return costs
}

func (b *bfsModel) costScratch(n int) []uint64 {
	if cap(b.costs) < n {
		b.costs = make([]uint64, n)
	}
	return b.costs[:n]
}

// ForSched replays one kernel's relaxation rounds under one scheduling
// policy at the model's worker count (vertex balance — the stealing
// sweep's fixed setting; the -balance axis is the edge-balance sweep's).
// Kernel names match the sweep: "bfs-frontier" and "bfs-hybrid". The sweep
// turns the kernel's stealing on exactly under the stealing policy; under
// every other policy the kernel runs a push level below its grain on
// worker 0 alone (bfs.OneWorkerLevel), and so does the model.
func (b *bfsModel) ForSched(kernel string, pol sched.Policy, chunk int) WorkModel {
	p := b.p
	var m WorkModel
	push := func(L int) {
		f := b.byLevel[L]
		costs := b.frontierCosts(f)
		if pol == sched.Stealing || !bfs.OneWorkerLevel(uint64(len(f)), b.degLevel[L]) {
			m.addSchedRound(costs, pol, p, chunk)
			return
		}
		clear(b.shard)
		for _, c := range costs {
			b.shard[0] += c
		}
		m.addRound(b.shard)
	}
	switch kernel {
	case "bfs-frontier":
		for L := 0; L <= b.depth; L++ {
			push(L)
		}
	case "bfs-hybrid":
		mf := uint64(b.g.Degree(b.source))
		mu := uint64(b.g.NumArcs()) - mf
		pull := false
		for L := 0; L <= b.depth; L++ {
			nf := uint64(len(b.byLevel[L]))
			pull = bfs.NextDirection(pull, mf, mu, nf, uint64(b.n))
			if pull {
				m.addSchedRound(b.pullCosts(uint32(L)), pol, p, chunk)
			} else {
				push(L)
			}
			var disc uint64
			if L+1 <= b.depth {
				disc = b.degLevel[L+1]
			}
			mu -= disc
			mf = disc
		}
	default:
		panic("bench: no scheduling model for kernel " + kernel)
	}
	m.Depth = b.depth
	return m
}
