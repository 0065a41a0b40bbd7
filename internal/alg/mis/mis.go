// Package mis implements Luby's randomized maximal-independent-set
// algorithm, a fourth classic CRCW PRAM kernel in the mould of the paper's
// benchmarks: its per-round "kill the neighbourhood" step is a *common*
// concurrent write (every writer stores the same value, "dead"), so the
// package provides one variant per concurrent-write method, exactly as the
// paper structured its kernels.
//
// Each round, every live vertex draws a deterministic pseudo-random
// priority; a vertex joins the set iff its priority beats every live
// neighbour's (a pure concurrent-read step), then the winners and their
// neighbourhoods leave the graph — the winners by an exclusive write to
// their own cell, the neighbourhoods by the common concurrent write that
// the methods under study guard:
//
//   - Naive:      plain stores (safe here: common CW of one word — the
//     same argument as the paper's BFS visited flags);
//   - CASLT:      one winner per victim per round, everyone else skips;
//   - Gatekeeper: fetch-and-add per attempt plus the O(N) reset pass per
//     round;
//   - Mutex:      per-victim critical section.
//
// Expected O(log n) rounds; results are validated for independence and
// maximality against the graph.
package mis

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/graph"
)

// Kernel holds the shared arrays for repeated MIS runs over one graph.
type Kernel struct {
	m *machine.Machine
	g *graph.Graph
	n int

	live      []uint32
	inSet     []uint32
	joins     []uint32
	arcBounds []int // equal-arc vertex shards for the select phases

	cells *cw.Array
	gates *cw.GateArray
	mtx   *cw.MutexArray

	base  uint32
	trace *exec.TraceStats // structural record of the last trace-backend run
}

// NewKernel returns an MIS kernel over g executed on m. g must be
// undirected (both arc directions stored) so that the neighbour-priority
// comparison is symmetric.
func NewKernel(m *machine.Machine, g *graph.Graph) *Kernel {
	if !g.Undirected() {
		panic("mis: kernel requires an undirected graph")
	}
	n := g.NumVertices()
	k := &Kernel{
		m:     m,
		g:     g,
		n:     n,
		live:  make([]uint32, n),
		inSet: make([]uint32, n),
		joins: make([]uint32, n),
		cells: cw.NewArray(n, cw.Packed),
		gates: cw.NewGateArray(n, cw.Packed),
		mtx:   cw.NewMutexArray(n),
	}
	// Every select phase walks each vertex's whole adjacency list, so it is
	// sharded by arcs (graph.ArcBounds), not vertices; the shards are static
	// for the kernel's lifetime and shared by every backend.
	k.arcBounds = graph.ArcBounds(g, m.P())
	return k
}

// Prepare resets the kernel state. Untimed; CAS-LT cells carry over via
// the round offset.
func (k *Kernel) Prepare() {
	if k.base > 1<<31 {
		k.m.ParallelRange(k.n, func(lo, hi, _ int) { k.cells.ResetRange(lo, hi) })
		k.base = 0
	}
	k.m.ParallelRange(k.n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			k.live[i] = 1
			k.inSet[i] = 0
			k.joins[i] = 0
		}
		k.gates.ResetRange(lo, hi)
	})
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// prio returns vertex v's priority for iteration it: lexicographic
// (hash, id), a total order, so two adjacent vertices can never both win.
func prio(seed uint64, it uint32, v uint32) uint64 {
	return splitmix64(seed^uint64(it)<<32^uint64(v))<<32 | uint64(v)
}

// Run executes Luby's algorithm with the given concurrent-write method for
// the neighbourhood-kill writes, under the machine's default execution
// backend. Prepare must have been called first; seed makes the priorities
// deterministic. The returned slice (1 = in the set) aliases kernel state
// valid until the next Prepare.
func (k *Kernel) Run(method cw.Method, seed uint64) []uint32 {
	return k.RunExec(k.m.Exec(), method, seed)
}

// RunExec is Run under an explicit execution backend. The round loop is one
// SPMD body: the liveness word is the region's rotating Flag, round ids
// come from the worker-local NextRound counter (offset by the kernel's
// base), and the consumed-round count is captured by worker 0 for the
// caller-side base advance.
func (k *Kernel) RunExec(e machine.Exec, method cw.Method, seed uint64) []uint32 {
	kill := k.killFunc(method)
	needsReset := method.NeedsReset()
	offsets, targets := k.g.Offsets(), k.g.Targets()
	maxIter := 8*bits.Len(uint(k.n)) + 64
	var rounds uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		rec := ctx.Metrics()
		anyLive := ctx.Flag()
		it := uint32(0)
		for {
			anyLive.Set(it+1, 0) // prime next round's flag (common CW)
			round := k.base + ctx.NextRound()

			// Select: a live vertex joins iff its priority beats every live
			// neighbour's. Reads only; live is stable within the phase. The
			// phase's cost is the arc scan, so it runs over the equal-arc
			// shards.
			ctx.Bounds(k.arcBounds, func(lo, hi, _ int) {
				sawLive := false
				for v := lo; v < hi; v++ {
					if k.live[v] == 0 {
						continue
					}
					sawLive = true
					mine := prio(seed, it, uint32(v))
					wins := true
					for j := offsets[v]; j < offsets[v+1]; j++ {
						u := targets[j]
						if u != uint32(v) && k.live[u] == 1 && prio(seed, it, u) < mine {
							wins = false
							break
						}
					}
					if wins {
						k.joins[v] = 1 // exclusive write to own cell
					}
				}
				if sawLive {
					anyLive.Set(it, 1)
				}
			})
			if anyLive.Get(it) == 0 {
				if ctx.Worker() == 0 {
					rounds = it + 1 // one select phase per consumed round id
				}
				break
			}

			// Commit winners: own-cell exclusive writes.
			ctx.Range(k.n, func(lo, hi, _ int) {
				for v := lo; v < hi; v++ {
					if k.joins[v] == 1 {
						k.joins[v] = 0
						k.inSet[v] = 1
						k.live[v] = 0
					}
				}
			})

			// Kill neighbourhoods: the common concurrent write under study.
			// Arcs out of fresh set members all store "dead" into the
			// neighbour's cell. Each share of the arcs is walked source by
			// source from graph.ArcSource(lo), skipping non-members' lists.
			ctx.Range(len(targets), func(lo, hi, w int) {
				sh := rec.Shard(w)
				for u, j := k.g.ArcSource(lo), lo; j < hi; u++ {
					end := min(int(offsets[u+1]), hi)
					if k.inSet[u] == 0 {
						j = end
						continue
					}
					for ; j < end; j++ {
						v := targets[j]
						if atomic.LoadUint32(&k.live[v]) == 1 {
							kill(sh, int(v), round)
						}
					}
				}
			})
			if needsReset {
				ctx.Range(k.n, func(lo, hi, _ int) { k.gates.ResetRange(lo, hi) })
			}

			it++
			if int(it) > maxIter {
				panic(fmt.Sprintf("mis: no convergence after %d iterations (bug)", it))
			}
		}
	})
	k.base += rounds
	return k.inSet
}

// Trace returns the structural record of the kernel's last run under the
// trace backend, or nil if the last run used a timed backend.
func (k *Kernel) Trace() *exec.TraceStats { return k.trace }

// killFunc returns the guarded common write `live[v] = 0` for the method.
// Each variant reports its attempt to the worker's metrics shard (nil under
// metrics-off). Naive and Mutex always execute their store, so they record
// OutcomeWin unconditionally; the guarded methods record whatever the guard
// decided. All pass the kernel's real round so the per-cell probe restarts
// its count each round.
func (k *Kernel) killFunc(method cw.Method) func(sh *metrics.Shard, v int, round uint32) {
	switch method {
	case cw.Naive:
		return func(sh *metrics.Shard, v int, round uint32) {
			sh.Claim(v, round, cw.OutcomeWin) // every issued store executes
			k.live[v] = 0                     // common CW: every writer stores 0
		}
	case cw.CASLT:
		return func(sh *metrics.Shard, v int, round uint32) {
			if sh.Claim(v, round, k.cells.TryClaimOutcome(v, round)) {
				atomic.StoreUint32(&k.live[v], 0)
			}
		}
	case cw.Gatekeeper:
		return func(sh *metrics.Shard, v int, round uint32) {
			if sh.Claim(v, round, k.gates.TryEnterOutcome(v)) {
				atomic.StoreUint32(&k.live[v], 0)
			}
		}
	case cw.GatekeeperChecked:
		return func(sh *metrics.Shard, v int, round uint32) {
			if sh.Claim(v, round, k.gates.TryEnterCheckedOutcome(v)) {
				atomic.StoreUint32(&k.live[v], 0)
			}
		}
	case cw.Mutex:
		return func(sh *metrics.Shard, v int, round uint32) {
			k.mtx.Lock(v)
			// Atomic store: the pre-check loads of other arcs do not take
			// the victim's lock.
			atomic.StoreUint32(&k.live[v], 0)
			k.mtx.Unlock(v)
			sh.Claim(v, round, cw.OutcomeWin) // every acquisition writes
		}
	default:
		panic("mis: unknown method " + method.String())
	}
}

// kill sites read live[v] with an atomic load in the guarded paths because
// the winner's store races with other arcs' pre-checks; the naive variant
// reproduces the plain-store Rodinia idiom and is skipped under -race.

// Validate checks that inSet is a maximal independent set of g:
// independence (no two set members adjacent, self-loops exempt) and
// maximality (every non-member has a member neighbour, unless its only
// edges are self-loops or it is isolated — then it must be a member).
func Validate(g *graph.Graph, inSet []uint32) error {
	n := g.NumVertices()
	if len(inSet) != n {
		return fmt.Errorf("mis: result sized %d, want %d", len(inSet), n)
	}
	offsets, targets := g.Offsets(), g.Targets()
	for v := 0; v < n; v++ {
		if inSet[v] == 1 {
			for j := offsets[v]; j < offsets[v+1]; j++ {
				u := targets[j]
				if u != uint32(v) && inSet[u] == 1 {
					return fmt.Errorf("mis: adjacent members %d and %d", v, u)
				}
			}
			continue
		}
		covered := false
		for j := offsets[v]; j < offsets[v+1]; j++ {
			u := targets[j]
			if u != uint32(v) && inSet[u] == 1 {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("mis: non-member %d has no member neighbour — not maximal", v)
		}
	}
	return nil
}

// SequentialGreedy returns the lexicographic greedy MIS, the baseline.
func SequentialGreedy(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	inSet := make([]uint32, n)
	blocked := make([]bool, n)
	offsets, targets := g.Offsets(), g.Targets()
	for v := 0; v < n; v++ {
		if blocked[v] {
			continue
		}
		inSet[v] = 1
		for j := offsets[v]; j < offsets[v+1]; j++ {
			if targets[j] != uint32(v) {
				blocked[targets[j]] = true
			}
		}
	}
	return inSet
}
