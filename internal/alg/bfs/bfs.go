// Package bfs implements the paper's second benchmark: the Rodinia-style
// level-synchronous Breadth-First Search of Figure 3, in one variant per
// concurrent-write method.
//
// Each level L is one PRAM round: every vertex v on the frontier
// (level[v] == L) relaxes its edges, and each undiscovered endpoint u is the
// target of a concurrent write of the tuple (Parent[u], SelEdge[u],
// Visited[u], Level[u]). Discoverers at the same level write *different*
// parents and edges, so an unguarded implementation can commit a torn tuple
// (parent from one writer, edge from another) — the multi-location race the
// paper's Section 4 warns about and the reason the naive variant's parent
// tree is only weakly consistent. The selection variants guard the tuple:
//
//   - CASLT:      cells.TryClaim(u, L+1); the round id is the level counter,
//     which the paper notes comes "for free" — no per-level reinitialization.
//   - Gatekeeper: gates.TryEnter(u) plus the paper's Figure 3(b) full
//     re-initialization pass over all N gates after every level, inside the
//     timed region, exactly as in the listing.
//   - Mutex:      per-vertex critical section (baseline).
//
// Reads that race with winner writes inside a round (the visited filter and
// the frontier's level test) use sync/atomic loads in the guarded variants;
// on x86 these compile to plain loads, so the guarded kernels stay faithful
// to the paper's cost model while being race-detector clean. The naive
// variant is plain loads and stores throughout, reproducing the Rodinia
// original (and is therefore skipped under -race in tests).
package bfs

import (
	"fmt"
	"math"
	"sync/atomic"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/graph"
)

// Unreached marks a vertex not (yet) reached; it is also the parent and
// selected-edge value of the source and of unreachable vertices.
const Unreached = math.MaxUint32

// Result gives read-only access to the arrays produced by a run.
type Result struct {
	// Level[u] is u's BFS depth, or Unreached.
	Level []uint32
	// Parent[u] is the frontier vertex that discovered u, or Unreached.
	Parent []uint32
	// SelEdge[u] is the CSR arc index by which u was discovered, or
	// Unreached.
	SelEdge []uint32
	// Depth is the number of levels traversed (max finite level).
	Depth int
}

// Kernel holds the shared arrays for repeated BFS runs over one graph.
type Kernel struct {
	m *machine.Machine
	g *graph.Graph
	n int

	level   []uint32
	visited []uint32
	parent  []uint32
	selEdge []uint32

	cells *cw.Array
	gates *cw.GateArray
	mtx   *cw.MutexArray

	source uint32
	base   uint32           // CAS-LT round offset carried across runs
	trace  *exec.TraceStats // structural record of the last trace-backend run

	// balance selects vertex- or edge-balanced loop partitioning;
	// arcBounds caches the equal-arc vertex shards for the whole range.
	balance   graph.Balance
	arcBounds []int

	// steal routes the frontier relaxation (the irregular per-vertex-cost
	// loop) through the work-stealing scheduler. Defaults to the graph's
	// degree skew; see SetStealing. Edge balance takes precedence: when
	// both are on, the WeightedRange shards already equalize arc work.
	steal bool

	// bitmap switches the pull/hybrid/frontier CAS-LT variants to
	// bit-packed visited and frontier-membership state (see SetBitmap).
	// visBits is the visited set (doubling as the claim state: the
	// fetch-OR winner owns the discovery tuple); curBits/nextBits are the
	// double-buffered level-membership bitmaps of the pure pull driver,
	// with curBits rebuilt from the explicit frontier each hybrid pull
	// level (the push→pull conversion round).
	bitmap   bool
	visBits  *cw.BitArray
	curBits  *cw.BitArray
	nextBits *cw.BitArray

	// Frontier-variant state (frontier.go), allocated on first use: the
	// per-worker discovery buffers, one set per level parity.
	disc [2][]discBuf

	// Edge-balanced frontier scratch (allocated when balance is edge):
	// per-vertex frontier degrees, their prefix scan, and the per-worker
	// partial sums of the team-mode in-region scan.
	deg     []uint32
	cum     []uint32
	degPart []uint32
}

// NewKernel returns a BFS kernel over g executed on m. The machine and
// graph are borrowed, not owned.
func NewKernel(m *machine.Machine, g *graph.Graph) *Kernel {
	n := g.NumVertices()
	return &Kernel{
		m:       m,
		g:       g,
		n:       n,
		level:   make([]uint32, n),
		visited: make([]uint32, n),
		parent:  make([]uint32, n),
		selEdge: make([]uint32, n),
		cells:   cw.NewArray(n, cw.Packed),
		gates:   cw.NewGateArray(n, cw.Packed),
		mtx:     cw.NewMutexArray(n),
		steal:   graph.DegreeSkewed(g),
	}
}

// SetBalance selects how the kernel's vertex loops are partitioned:
// equal-vertex blocks (the default, the paper's formulation) or the
// equal-arc shards of graph.ArcBounds, which unskew the per-worker arc work
// on hub-heavy graphs. Frontier variants additionally shard each level's
// frontier by its edge count. Balance changes which worker walks which
// vertices, never who may write what, so results are unaffected. Call it
// before Run*, not during.
func (k *Kernel) SetBalance(b graph.Balance) { k.balance = b }

// Balance returns the kernel's current balance policy.
func (k *Kernel) Balance() graph.Balance { return k.balance }

// SetStealing selects whether the frontier relaxation — the one loop whose
// per-index cost is the frontier vertex's degree — runs under the
// work-stealing scheduler instead of the machine's configured policy. The
// default is graph.DegreeSkewed(g): hub-heavy graphs steal, regular ones
// keep static shares. Like balance, stealing changes which worker walks
// which vertices, never who may write what, so results are unaffected.
// Edge balance (SetBalance) takes precedence over stealing when both are
// set. Call it before Run*, not during.
func (k *Kernel) SetStealing(on bool) { k.steal = on }

// Stealing returns whether the frontier relaxation uses work stealing.
func (k *Kernel) Stealing() bool { return k.steal }

// SetBitmap selects bit-packed (cw.BitArray) visited and frontier state for
// the CAS-LT pull, hybrid and frontier variants — the Beamer/GAP bottom-up
// representation. The visited filter, the pull membership probe and the
// discovery claim then read 512 vertices per cache line instead of 16, and
// the claim itself is a fetch-OR common write (the discovery payload "u is
// now visited" is identical for all writers, so no round stamp is needed;
// winner selection still picks exactly one tuple writer per vertex). Like
// balance and stealing this changes the memory representation of who-saw-
// what, never which vertex gets which level, so results are byte-identical
// to the word-per-vertex runs. The push level-sweep variants (RunCASLT,
// gatekeeper, naive, mutex) ignore it. Call it before Prepare, not during
// a run.
func (k *Kernel) SetBitmap(on bool) { k.bitmap = on }

// Bitmap returns whether the pull/hybrid/frontier variants use bit-packed
// visited and frontier state.
func (k *Kernel) Bitmap() bool { return k.bitmap }

// ensureBits lazily allocates the bitmap-state arrays. Must be called from
// the driver goroutine (before any region opens).
func (k *Kernel) ensureBits() {
	if k.visBits == nil {
		k.visBits = cw.NewBitArray(k.n)
		k.curBits = cw.NewBitArray(k.n)
		k.nextBits = cw.NewBitArray(k.n)
	}
}

// ensureArcBounds caches the equal-arc shards of the full vertex range.
// Must be called from the driver goroutine (in team mode: before the
// region opens).
func (k *Kernel) ensureArcBounds() []int {
	if len(k.arcBounds) != k.m.P()+1 {
		k.arcBounds = graph.ArcBounds(k.g, k.m.P())
	}
	return k.arcBounds
}

// ctxSweep executes one whole-vertex-range round under the kernel's
// balance policy: equal-vertex blocks or equal-arc shards.
// Re-initialization passes (gate resets, Prepare) stay on plain Range —
// their per-vertex cost is uniform, so vertex balance is already optimal
// there. Edge balance requires k.arcBounds to be populated before the
// region opens (runLevels and the hybrid driver do so).
func (k *Kernel) ctxSweep(ctx exec.Ctx, body func(lo, hi, w int)) {
	if k.balance == graph.BalanceEdge {
		ctx.Bounds(k.arcBounds, body)
		return
	}
	ctx.Range(k.n, body)
}

// Prepare resets the traversal arrays for a run from the given source.
// Prepare is the untimed initialization phase. The CAS-LT cells are not
// reset: runs after the first reuse them by advancing the round offset,
// which is the method's point.
func (k *Kernel) Prepare(source uint32) {
	if int(source) >= k.n {
		panic(fmt.Sprintf("bfs: source %d out of range for %d vertices", source, k.n))
	}
	k.source = source
	// Guard the (astronomically distant) uint32 round wrap: recycle cells.
	if k.base > math.MaxUint32/2 {
		k.m.ParallelRange(k.n, func(lo, hi, _ int) { k.cells.ResetRange(lo, hi) })
		k.base = 0
	}
	if k.bitmap {
		k.ensureBits()
	}
	k.m.ParallelRange(k.n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			k.level[i] = Unreached
			k.visited[i] = 0
			k.parent[i] = Unreached
			k.selEdge[i] = Unreached
		}
		k.gates.ResetRange(lo, hi)
		if k.bitmap {
			// Sharded bit clears are word-boundary safe (BitArray.ResetRange).
			k.visBits.ResetRange(lo, hi)
			k.curBits.ResetRange(lo, hi)
			k.nextBits.ResetRange(lo, hi)
		}
	})
	k.level[source] = 0
	k.visited[source] = 1
	if k.bitmap {
		k.visBits.Set(int(source))
	}
}

// Run executes BFS with the given method under the machine's default
// execution backend. Prepare must have been called first; a Result view
// over the kernel's arrays is returned (valid until the next Prepare/Run).
func (k *Kernel) Run(method cw.Method) Result {
	return k.RunExec(k.m.Exec(), method)
}

// RunExec is Run under an explicit execution backend.
func (k *Kernel) RunExec(e machine.Exec, method cw.Method) Result {
	switch method {
	case cw.CASLT:
		return k.RunCASLTExec(e)
	case cw.Gatekeeper:
		return k.runGate(e, false)
	case cw.GatekeeperChecked:
		return k.runGate(e, true)
	case cw.Naive:
		return k.RunNaiveExec(e)
	case cw.Mutex:
		return k.RunMutexExec(e)
	default:
		panic("bfs: unknown method " + method.String())
	}
}

func (k *Kernel) result(depth int) Result {
	return Result{Level: k.level, Parent: k.parent, SelEdge: k.selEdge, Depth: depth}
}

// Trace returns the structural record of the kernel's last run under the
// trace backend, or nil if the last run used a timed backend.
func (k *Kernel) Trace() *exec.TraceStats { return k.trace }

// runLevels drives the level loop through the execution layer. sweep
// executes one worker's share [lo, hi) of level L's vertex sweep (under
// the kernel's balance policy) and reports whether it discovered anything;
// gateReset adds the gatekeeper's O(N) re-initialization pass between
// levels, inside the timed region as in Figure 3(b). Returns the depth
// (max finite level). The per-level convergence word is the region's
// rotating Flag; each level is one round, closed by the sense barrier
// (counted under trace).
func (k *Kernel) runLevels(e machine.Exec, sweep func(lo, hi, w int, L, round uint32, sh *metrics.Shard) bool, gateReset bool) uint32 {
	if k.balance == graph.BalanceEdge {
		k.ensureArcBounds() // allocate outside the region
	}
	var depth uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		rec := ctx.Metrics()
		progress := ctx.Flag()
		L := uint32(0)
		for {
			progress.Set(L+1, 0) // prime next level's flag (common CW)
			round := k.base + L + 1
			if ctx.Worker() == 0 {
				// The level counter doubles as the round id (no NextRound
				// call to count), so credit the consumed round here.
				rec.AddRounds(1)
			}
			k.ctxSweep(ctx, func(lo, hi, w int) {
				if sweep(lo, hi, w, L, round, rec.Shard(w)) {
					progress.Set(L, 1)
				}
			})
			if progress.Get(L) == 0 {
				if ctx.Worker() == 0 {
					depth = L
				}
				break
			}
			if gateReset {
				// Figure 3(b) lines 34-35: re-open every gate before the
				// next level — the O(N)-work re-initialization the method
				// requires.
				ctx.Range(k.n, func(lo, hi, _ int) { k.gates.ResetRange(lo, hi) })
			}
			L++ // "round could be substituted by the loop iteration ... for free"
		}
	})
	return depth
}

// RunCASLT is Figure 3(a): the concurrent write of each discovery tuple is
// guarded by canConWriteCASLT(&RoundWritten[u], L+1); the level counter is
// the round id.
func (k *Kernel) RunCASLT() Result { return k.RunCASLTExec(k.m.Exec()) }

// RunCASLTExec is RunCASLT under an explicit execution backend.
func (k *Kernel) RunCASLTExec(e machine.Exec) Result {
	offsets, targets := k.g.Offsets(), k.g.Targets()
	depth := k.runLevels(e, func(lo, hi, _ int, L, round uint32, sh *metrics.Shard) bool {
		progress := false
		for v := lo; v < hi; v++ {
			if atomic.LoadUint32(&k.level[v]) != L {
				continue
			}
			for j := offsets[v]; j < offsets[v+1]; j++ {
				u := targets[j]
				if atomic.LoadUint32(&k.visited[u]) != 0 {
					continue
				}
				if sh.Claim(int(u), round, k.cells.TryClaimOutcome(int(u), round)) {
					k.parent[u] = uint32(v)
					k.selEdge[u] = j
					atomic.StoreUint32(&k.visited[u], 1)
					atomic.StoreUint32(&k.level[u], L+1)
					progress = true
				}
			}
		}
		return progress
	}, false)
	k.base += depth + 1
	return k.result(int(depth))
}

// RunGatekeeper is Figure 3(b): canConWriteAtomic(&gatekeeper[u]) guards
// the tuple, and after every level the whole gatekeeper array is re-zeroed
// in a parallel pass — inside the timed region, as in the listing.
func (k *Kernel) RunGatekeeper() Result { return k.runGate(k.m.Exec(), false) }

// RunGateChecked is RunGatekeeper with the load pre-check mitigation the
// paper suggests (skip the atomic once the gatekeeper is non-zero).
func (k *Kernel) RunGateChecked() Result { return k.runGate(k.m.Exec(), true) }

func (k *Kernel) runGate(e machine.Exec, checked bool) Result {
	offsets, targets := k.g.Offsets(), k.g.Targets()
	depth := k.runLevels(e, func(lo, hi, _ int, L, round uint32, sh *metrics.Shard) bool {
		progress := false
		for v := lo; v < hi; v++ {
			if atomic.LoadUint32(&k.level[v]) != L {
				continue
			}
			for j := offsets[v]; j < offsets[v+1]; j++ {
				u := targets[j]
				if atomic.LoadUint32(&k.visited[u]) != 0 {
					continue
				}
				var o cw.Outcome
				if checked {
					o = k.gates.TryEnterCheckedOutcome(int(u))
				} else {
					o = k.gates.TryEnterOutcome(int(u))
				}
				if sh.Claim(int(u), round, o) {
					k.parent[u] = uint32(v)
					k.selEdge[u] = j
					atomic.StoreUint32(&k.visited[u], 1)
					atomic.StoreUint32(&k.level[u], L+1)
					progress = true
				}
			}
		}
		return progress
	}, true)
	return k.result(int(depth))
}

// RunNaive reproduces the unmodified Rodinia approach: every discoverer
// writes the whole tuple with plain stores and the memory system picks the
// survivors, field by field. Levels are a common CW (all discoverers write
// L+1) and therefore correct; Parent and SelEdge are arbitrary CWs and may
// be torn across fields (see package comment).
func (k *Kernel) RunNaive() Result { return k.RunNaiveExec(k.m.Exec()) }

// RunNaiveExec is RunNaive under an explicit execution backend.
func (k *Kernel) RunNaiveExec(e machine.Exec) Result {
	offsets, targets := k.g.Offsets(), k.g.Targets()
	depth := k.runLevels(e, func(lo, hi, _ int, L, round uint32, sh *metrics.Shard) bool {
		progress := false
		for v := lo; v < hi; v++ {
			if k.level[v] != L {
				continue
			}
			for j := offsets[v]; j < offsets[v+1]; j++ {
				u := targets[j]
				if k.visited[u] == 0 {
					// No winner selection: every issued write counts as an
					// executed win; the visited filter plays the pre-check.
					sh.Claim(int(u), round, cw.OutcomeWin)
					k.parent[u] = uint32(v)
					k.selEdge[u] = j
					k.visited[u] = 1
					k.level[u] = L + 1
					progress = true
				}
			}
		}
		return progress
	}, false)
	return k.result(int(depth))
}

// RunMutex is the critical-section baseline: the whole discovery tuple is
// written under the target vertex's lock, with the visited test inside the
// lock so each vertex is discovered exactly once.
func (k *Kernel) RunMutex() Result { return k.RunMutexExec(k.m.Exec()) }

// RunMutexExec is RunMutex under an explicit execution backend.
func (k *Kernel) RunMutexExec(e machine.Exec) Result {
	offsets, targets := k.g.Offsets(), k.g.Targets()
	depth := k.runLevels(e, func(lo, hi, _ int, L, round uint32, sh *metrics.Shard) bool {
		progress := false
		for v := lo; v < hi; v++ {
			if atomic.LoadUint32(&k.level[v]) != L {
				continue
			}
			for j := offsets[v]; j < offsets[v+1]; j++ {
				u := targets[j]
				if atomic.LoadUint32(&k.visited[u]) != 0 {
					continue
				}
				k.mtx.Lock(int(u))
				// Each lock acquisition is one executed attempt; the
				// visited re-check decides win vs loss.
				o := cw.OutcomeLoss
				if k.visited[u] == 0 {
					o = cw.OutcomeWin
					k.parent[u] = uint32(v)
					k.selEdge[u] = j
					atomic.StoreUint32(&k.visited[u], 1)
					atomic.StoreUint32(&k.level[u], L+1)
					progress = true
				}
				k.mtx.Unlock(int(u))
				sh.Claim(int(u), round, o)
			}
		}
		return progress
	}, false)
	return k.result(int(depth))
}

// Sequential is the queue-based validation baseline: it returns the exact
// level of every vertex and a (valid but arbitrary) parent tree.
func Sequential(g *graph.Graph, source uint32) Result {
	n := g.NumVertices()
	level := make([]uint32, n)
	parent := make([]uint32, n)
	selEdge := make([]uint32, n)
	for i := range level {
		level[i] = Unreached
		parent[i] = Unreached
		selEdge[i] = Unreached
	}
	level[source] = 0
	queue := make([]uint32, 0, 1024)
	queue = append(queue, source)
	depth := 0
	offsets, targets := g.Offsets(), g.Targets()
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for j := offsets[v]; j < offsets[v+1]; j++ {
			u := targets[j]
			if level[u] == Unreached {
				level[u] = level[v] + 1
				parent[u] = v
				selEdge[u] = j
				if int(level[u]) > depth {
					depth = int(level[u])
				}
				queue = append(queue, u)
			}
		}
	}
	return Result{Level: level, Parent: parent, SelEdge: selEdge, Depth: depth}
}
