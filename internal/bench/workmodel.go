package bench

import (
	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

// This file is the deterministic work model behind the edge-balance sweep.
//
// Wall time on a shared (or oversubscribed) host cannot attribute a delta
// to load balance: with fewer cores than workers every partitioning runs the
// same total work serially, and the straggler effect the edge-balanced
// shards remove is invisible. The model instead *replays* each BFS
// variant's partitioning decisions — the same sched.BlockRange /
// graph.ArcBounds / sched.WeightedRange boundaries and the same
// bfs.NextDirection switches, driven by the exact sequential levels — and
// counts abstract work units per worker per round:
//
//	1 unit per vertex an iteration touches + 1 unit per arc it examines.
//
// Three aggregates summarize a run:
//
//	WorkTotal — all units (the algorithm's cost, partitioning-independent
//	            for a fixed direction schedule);
//	WorkCrit  — Σ over rounds of the busiest worker's units: the modelled
//	            critical path, what a wall clock with one core per worker
//	            would show;
//	WorkIdeal — Σ over rounds of ceil(roundTotal/P), the best any
//	            contiguous partitioning could do under the same rounds.
//
// Imbalance = WorkCrit / WorkIdeal is then the figure of merit: 1.0 means
// the partitioning is perfect, P means one worker does everything.
//
// The model is exact for the sweep variants (static shards, full-range
// scans). For the frontier variants it orders each level's frontier by
// vertex id, whereas a real run orders it by worker discovery; per-vertex
// costs are identical, so only the shard assignment can differ slightly.

// WorkModel is the replayed cost of one (kernel, balance) combination.
type WorkModel struct {
	Total uint64
	Crit  uint64
	Ideal uint64
	Depth int
}

// Imbalance returns Crit/Ideal, the modelled load-balance factor.
func (m WorkModel) Imbalance() float64 {
	if m.Ideal == 0 {
		return 1
	}
	return float64(m.Crit) / float64(m.Ideal)
}

func (m *WorkModel) addRound(shard []uint64) {
	var sum, max uint64
	for _, w := range shard {
		sum += w
		if w > max {
			max = w
		}
	}
	if sum == 0 {
		return
	}
	p := uint64(len(shard))
	m.Total += sum
	m.Crit += max
	m.Ideal += (sum + p - 1) / p
}

// bfsModel precomputes the level structure one replay needs.
type bfsModel struct {
	g      *graph.Graph
	p      int
	n      int
	source uint32
	levels []uint32
	depth  int
	// byLevel[L] lists the vertices at level L in id order.
	byLevel [][]uint32
	// degLevel[L] is the summed degree of level L — the hybrid's m_f.
	degLevel []uint64
	// firstHit[u] is the number of arcs a pull scan of u examines in the
	// round that discovers it: 1 + the CSR position of u's first neighbor
	// at level[u]-1. Zero for the source and unreached vertices.
	firstHit []uint32
	// arcBounds caches the edge-balanced static shards.
	arcBounds []int
	// scratch
	shard []uint64
	cum   []uint32
	costs []uint64 // per-index round costs for the scheduling model
}

// newBFSModel builds the replay state from a sequential BFS result.
func newBFSModel(g *graph.Graph, source uint32, p int, seq bfs.Result) *bfsModel {
	n := g.NumVertices()
	b := &bfsModel{
		g:        g,
		p:        p,
		n:        n,
		source:   source,
		levels:   seq.Level,
		depth:    seq.Depth,
		byLevel:  make([][]uint32, seq.Depth+2),
		degLevel: make([]uint64, seq.Depth+2),
		firstHit: make([]uint32, n),
		shard:    make([]uint64, p),
		cum:      make([]uint32, n+1),
	}
	offsets, targets := g.Offsets(), g.Targets()
	for v := 0; v < n; v++ {
		L := b.levels[v]
		if L == bfs.Unreached || int(L) > b.depth {
			continue
		}
		b.byLevel[L] = append(b.byLevel[L], uint32(v))
		b.degLevel[L] += uint64(g.Degree(uint32(v)))
		if L == 0 {
			continue
		}
		for j := offsets[v]; j < offsets[v+1]; j++ {
			if b.levels[targets[j]] == L-1 {
				b.firstHit[v] = j - offsets[v] + 1
				break
			}
		}
	}
	return b
}

func (b *bfsModel) bounds(bal graph.Balance) []int {
	if bal == graph.BalanceEdge {
		if b.arcBounds == nil {
			b.arcBounds = graph.ArcBounds(b.g, b.p)
		}
		return b.arcBounds
	}
	bounds := make([]int, b.p+1)
	for w := 0; w < b.p; w++ {
		bounds[w], bounds[w+1] = sched.BlockRange(b.n, b.p, w)
	}
	return bounds
}

// For replays one kernel under one balance policy. Kernel names match the
// edge-balance sweep: "bfs" (full sweep), "bfs-frontier", "bfs-pull",
// "bfs-hybrid".
func (b *bfsModel) For(kernel string, bal graph.Balance) WorkModel {
	var m WorkModel
	switch kernel {
	case "bfs":
		m = b.sweep(bal)
	case "bfs-frontier":
		m = b.frontier(bal)
	case "bfs-pull":
		m = b.pull(bal)
	case "bfs-hybrid":
		m = b.hybrid(bal)
	default:
		panic("bench: no work model for kernel " + kernel)
	}
	m.Depth = b.depth
	return m
}

// sweep models the full-sweep push kernel: depth+1 rounds (the last one
// finds nothing), each scanning every vertex and relaxing the arcs of the
// vertices at the current level, over the static vertex- or arc-balanced
// shards.
func (b *bfsModel) sweep(bal graph.Balance) WorkModel {
	var m WorkModel
	bounds := b.bounds(bal)
	for L := uint32(0); int(L) <= b.depth; L++ {
		for w := 0; w < b.p; w++ {
			work := uint64(bounds[w+1] - bounds[w])
			for v := bounds[w]; v < bounds[w+1]; v++ {
				if b.levels[v] == L {
					work += uint64(b.g.Degree(uint32(v)))
				}
			}
			b.shard[w] = work
		}
		m.addRound(b.shard)
	}
	return m
}

// frontierRound fills shard with the per-worker cost of relaxing frontier f
// under the balance policy: 1 + deg(u) per frontier vertex, split by vertex
// count or by the degree prefix (mirroring the kernel's push level, with
// its stealing off, as the edge-balance sweep runs it). A level the vertex
// split would share but whose work is below the kernel's grain runs on
// worker 0 alone (bfs.OneWorkerLevel), as in the kernel.
func (b *bfsModel) frontierRound(f []uint32, bal graph.Balance) {
	for w := range b.shard {
		b.shard[w] = 0
	}
	nf := len(f)
	if bal == graph.BalanceEdge && nf > 1 {
		cum := b.cum[:nf+1]
		cum[0] = 0
		for i, u := range f {
			cum[i+1] = cum[i] + uint32(b.g.Degree(u))
		}
		for w := 0; w < b.p; w++ {
			lo, hi := sched.WeightedRange(cum, b.p, w)
			var work uint64
			for i := lo; i < hi; i++ {
				work += 1 + uint64(b.g.Degree(f[i]))
			}
			b.shard[w] = work
		}
		return
	}
	var total uint64 // nf + m_f
	for w := 0; w < b.p; w++ {
		lo, hi := sched.BlockRange(nf, b.p, w)
		var work uint64
		for i := lo; i < hi; i++ {
			work += 1 + uint64(b.g.Degree(f[i]))
		}
		b.shard[w] = work
		total += work
	}
	if bfs.OneWorkerLevel(uint64(nf), total-uint64(nf)) {
		clear(b.shard)
		b.shard[0] = total
	}
}

// frontier models the explicit-frontier push kernel: one round per level
// 0..depth (the last frontier relaxes and discovers nothing).
func (b *bfsModel) frontier(bal graph.Balance) WorkModel {
	var m WorkModel
	for L := 0; L <= b.depth; L++ {
		b.frontierRound(b.byLevel[L], bal)
		m.addRound(b.shard)
	}
	return m
}

// pullRound fills shard with the cost of one bottom-up round at level L
// over the static shards: reached vertices cost the filter read, vertices
// about to be discovered scan up to their first level-L neighbor, everyone
// else scans their whole list.
func (b *bfsModel) pullRound(L uint32, bounds []int) {
	for w := 0; w < b.p; w++ {
		var work uint64
		for v := bounds[w]; v < bounds[w+1]; v++ {
			switch lv := b.levels[v]; {
			case lv <= L: // reached in an earlier round: filter only
				work++
			case lv == L+1: // discovered this round: scan to the hit
				work += 1 + uint64(b.firstHit[v])
			default: // still unreached: full scan
				work += 1 + uint64(b.g.Degree(uint32(v)))
			}
		}
		b.shard[w] = work
	}
}

// pull models the pure bottom-up kernel: rounds L = 0..depth (the last one
// discovers nothing and stops the loop).
func (b *bfsModel) pull(bal graph.Balance) WorkModel {
	var m WorkModel
	bounds := b.bounds(bal)
	for L := uint32(0); int(L) <= b.depth; L++ {
		b.pullRound(L, bounds)
		m.addRound(b.shard)
	}
	return m
}

// hybrid replays the direction-optimizing kernel: the same frontier /
// bottom-up rounds as above, chosen per level by bfs.NextDirection with the
// kernel's own m_f / m_u bookkeeping.
func (b *bfsModel) hybrid(bal graph.Balance) WorkModel {
	var m WorkModel
	bounds := b.bounds(bal)
	mf := uint64(b.g.Degree(b.source))
	mu := uint64(b.g.NumArcs()) - mf
	pull := false
	for L := 0; L <= b.depth; L++ {
		nf := uint64(len(b.byLevel[L]))
		pull = bfs.NextDirection(pull, mf, mu, nf, uint64(b.n))
		if pull {
			b.pullRound(uint32(L), bounds)
		} else {
			b.frontierRound(b.byLevel[L], bal)
		}
		m.addRound(b.shard)
		var disc uint64
		if L+1 <= b.depth {
			disc = b.degLevel[L+1]
		}
		mu -= disc
		mf = disc
	}
	return m
}
