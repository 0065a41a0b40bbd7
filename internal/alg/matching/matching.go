// Package matching implements randomized parallel maximal matching in the
// style of Yang, Dhall and Lakshmivarahan (the paper's reference [23]) —
// a workload the paper singles out as typical of CRCW algorithms that get
// reformulated for CREW machines because concurrent writes were thought
// unimplementable. Here the CRCW formulation runs as-is on CAS-LT.
//
// Each iteration is a two-level arbitrary concurrent write:
//
//  1. Propose: every vertex flips a coin; for every live edge (u, v) with
//     u a head and v a tail, u's processors race an arbitrary CW on v's
//     proposal slot — one proposer (and the arc it arrived by) commits.
//  2. Accept: a head u may have won proposals on several tails; the tails
//     race a second arbitrary CW on u's acceptance slot. The winning pair
//     (u, v) is matched and both vertices leave the graph.
//
// Both levels write multi-word payloads (who + via which arc), so an
// unguarded implementation could tear them; the recorded match edges are
// validated against the graph. Expected O(log m) iterations remove all
// live edges; on termination no edge joins two unmatched vertices, i.e.
// the matching is maximal.
package matching

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

// Unmatched marks a vertex with no mate.
const Unmatched = math.MaxUint32

// Result gives read-only access to the arrays produced by a run.
type Result struct {
	// Mate[v] is v's matched partner, or Unmatched.
	Mate []uint32
	// MateEdge[v] is the CSR arc index that created v's match (stored on
	// both endpoints), or Unmatched.
	MateEdge []uint32
	// Iterations is the number of propose/accept rounds executed.
	Iterations int
}

// Size returns the number of matched pairs.
func (r Result) Size() int {
	n := 0
	for _, m := range r.Mate {
		if m != Unmatched {
			n++
		}
	}
	return n / 2
}

// Kernel holds the shared arrays for repeated matching runs over one
// graph.
type Kernel struct {
	m *machine.Machine
	g *graph.Graph
	n int

	alive    []uint32
	mate     []uint32
	mateEdge []uint32
	proposer []uint32 // per tail: winning head
	propArc  []uint32 // per tail: arc the proposal arrived by

	propCells   *cw.Array // level-1 guard: one per tail
	acceptCells *cw.Array // level-2 guard: one per head

	trace *exec.TraceStats // structural record of the last trace-backend run

	// steal routes the propose loop (arc-parallel, CSR-contiguous hub arcs)
	// through the work-stealing scheduler. Defaults to the graph's degree
	// skew; see SetStealing. The accept loop stays a regular vertex sweep.
	steal bool

	// bitmap switches the boolean per-vertex state to bit-packed arrays
	// (see SetBitmap): propBits replaces the proposal claim cells, deadBits
	// the alive words. The accept claim keeps its word cells — its payload
	// (mate + arc) is multi-word either way.
	bitmap   bool
	propBits *cw.BitArray
	deadBits *cw.BitArray
}

// NewKernel returns a matching kernel over g executed on m. g must be
// undirected.
func NewKernel(m *machine.Machine, g *graph.Graph) *Kernel {
	if !g.Undirected() {
		panic("matching: kernel requires an undirected graph")
	}
	n := g.NumVertices()
	k := &Kernel{
		steal:       graph.DegreeSkewed(g),
		m:           m,
		g:           g,
		n:           n,
		alive:       make([]uint32, n),
		mate:        make([]uint32, n),
		mateEdge:    make([]uint32, n),
		proposer:    make([]uint32, n),
		propArc:     make([]uint32, n),
		propCells:   cw.NewArray(n, cw.Packed),
		acceptCells: cw.NewArray(n, cw.Packed),
	}
	m.Stamp(k.propCells)
	m.Stamp(k.acceptCells)
	return k
}

// SetStealing selects whether the propose loop runs under the
// work-stealing scheduler instead of the machine's configured policy.
// Defaults to graph.DegreeSkewed(g). Stealing changes which worker walks
// which arcs, never who may write what, so results are unaffected. Call it
// before Run*, not during.
func (k *Kernel) SetStealing(on bool) { k.steal = on }

// Stealing returns whether the propose loop uses work stealing.
func (k *Kernel) Stealing() bool { return k.steal }

// SetBitmap selects bit-packed (cw.BitArray) state for the matching's
// boolean payloads: the proposal flag ("tail v was proposed to this
// iteration" — the arbitration is who fills proposer[v], and the flag
// itself is a common write) becomes a fetch-OR claim on propBits, and the
// liveness words become deadBits ("v left the graph" is a monotone common
// write, set by the accept winner for both endpoints). The propose loop's
// two liveness reads per arc and the accept loop's proposal filter then
// scan 512 vertices per cache line instead of 16. propBits carries no
// round id, so it is cleared once per iteration in its own O(N/64) round —
// see DESIGN §3e for the bound trade. Winner arbitration is unchanged, so
// results match the word runs. Call it before Prepare, not during a run.
func (k *Kernel) SetBitmap(on bool) { k.bitmap = on }

// Bitmap returns whether the boolean matching state is bit-packed.
func (k *Kernel) Bitmap() bool { return k.bitmap }

// Prepare resets the matching state. Untimed; CAS-LT cells carry over, as
// every run claims them with fresh round ids from the machine.
func (k *Kernel) Prepare() {
	if k.bitmap && k.propBits == nil {
		k.propBits = cw.NewBitArray(k.n)
		k.deadBits = cw.NewBitArray(k.n)
	}
	k.m.ParallelRange(k.n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			k.alive[i] = 1
			k.mate[i] = Unmatched
			k.mateEdge[i] = Unmatched
		}
		if k.bitmap {
			// Everyone alive again; sharded bit clears are word-boundary safe.
			k.deadBits.ResetRange(lo, hi)
		}
	})
}

// splitmix64 hashes per-(seed, iteration, vertex) coin flips.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func head(seed uint64, it uint32, v uint32) bool {
	return splitmix64(seed^uint64(it)<<32^uint64(v))&1 == 1
}

// Run executes the randomized maximal matching with CAS-LT-guarded
// proposal and acceptance writes, under the machine's default execution
// backend. Prepare must have been called first. seed makes the coin flips
// deterministic.
func (k *Kernel) Run(seed uint64) Result {
	return k.RunExec(k.m.Exec(), seed)
}

// RunExec is Run under an explicit execution backend: one SPMD body around
// the whole propose/accept loop, two barriers per iteration (one per level
// of the two-level arbitrary concurrent write). The per-iteration liveness
// word is the region's rotating Flag.
func (k *Kernel) RunExec(e machine.Exec, seed uint64) Result {
	maxIter := 8*bits.Len(uint(k.g.NumArcs()+2)) + 64
	offsets, targets := k.g.Offsets(), k.g.Targets()
	var rounds uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		rec := ctx.Metrics()
		live := ctx.Flag()
		it := uint32(0)
		for {
			live.Set(it+1, 0) // prime next iteration's flag (common CW)
			round := ctx.NextRound()

			if k.bitmap {
				// The bit claims carry no round id: clear last iteration's
				// proposal bits in their own O(N/64) round before proposing.
				ctx.Range(k.n, func(lo, hi, _ int) { k.propBits.ResetRange(lo, hi) })
			}

			// Level 1 — propose: heads race on each live tail's slot. The
			// liveness flag is accumulated per share (or per stolen chunk —
			// the flag set is an idempotent common write either way). Each
			// share or chunk is walked source by source from
			// graph.ArcSource(lo), skipping dead sources' lists.
			propose := func(lo, hi, w int) {
				sh := rec.Shard(w)
				sawLive := false
				for src, j := k.g.ArcSource(lo), lo; j < hi; src++ {
					end := min(int(offsets[src+1]), hi)
					u := uint32(src)
					if k.bitmap && k.deadBits.Test(src) || !k.bitmap && k.alive[u] == 0 {
						j = end
						continue
					}
					uHead := head(seed, it, u)
					for ; j < end; j++ {
						v := targets[j]
						if k.bitmap {
							if k.deadBits.Test(int(v)) || u == v {
								continue
							}
						} else if k.alive[v] == 0 || u == v {
							continue
						}
						sawLive = true
						if !uHead || head(seed, it, v) {
							continue
						}
						var o cw.Outcome
						if k.bitmap {
							o = k.propBits.TryClaimBitOutcome(int(v))
						} else {
							o = k.propCells.TryClaimOutcome(int(v), round)
						}
						if sh.Claim(int(v), round, o) {
							k.proposer[v] = u
							k.propArc[v] = uint32(j)
						}
					}
				}
				if sawLive {
					live.Set(it, 1)
				}
			}
			if k.steal {
				ctx.StealRange(len(targets), propose)
			} else {
				ctx.Range(len(targets), propose)
			}

			// Level 2 — accept: proposed-to tails race on their proposer's
			// slot; the winner forms the match and both endpoints die.
			ctx.Range(k.n, func(lo, hi, w int) {
				sh := rec.Shard(w)
				for v := lo; v < hi; v++ {
					if k.bitmap {
						if !k.propBits.Test(v) {
							continue
						}
					} else if !k.propCells.Written(v, round) {
						continue
					}
					u := k.proposer[v]
					if sh.Claim(int(u), round, k.acceptCells.TryClaimOutcome(int(u), round)) {
						j := k.propArc[v]
						k.mate[v] = u
						k.mate[u] = uint32(v)
						k.mateEdge[v] = j
						k.mateEdge[u] = j
						// Dying is a write to the vertex's own cells plus the
						// partner's; the acceptance win makes it exclusive —
						// and in bitmap form a monotone common write (the OR
						// arbitrates only word aliasing with neighbor bits).
						if k.bitmap {
							k.deadBits.Set(v)
							k.deadBits.Set(int(u))
						} else {
							atomic.StoreUint32(&k.alive[v], 0)
							atomic.StoreUint32(&k.alive[u], 0)
						}
					}
				}
			})

			it++
			if live.Get(it-1) == 0 {
				if ctx.Worker() == 0 {
					rounds = it
				}
				break
			}
			if int(it) > maxIter {
				panic(fmt.Sprintf("matching: no convergence after %d iterations (bug or pathological seed)", it))
			}
		}
	})
	return Result{Mate: k.mate, MateEdge: k.mateEdge, Iterations: int(rounds)}
}

// Trace returns the structural record of the kernel's last run under the
// trace backend, or nil if the last run used a timed backend.
func (k *Kernel) Trace() *exec.TraceStats { return k.trace }

// Validate checks that a result is a valid maximal matching of g:
// symmetry, edge-backed pairs (untorn payloads), and maximality (no edge
// joins two unmatched vertices).
func Validate(g *graph.Graph, r Result) error {
	n := g.NumVertices()
	if len(r.Mate) != n || len(r.MateEdge) != n {
		return fmt.Errorf("matching: result arrays sized %d/%d, want %d", len(r.Mate), len(r.MateEdge), n)
	}
	offsets, targets := g.Offsets(), g.Targets()
	for v := 0; v < n; v++ {
		m := r.Mate[v]
		if m == Unmatched {
			if r.MateEdge[v] != Unmatched {
				return fmt.Errorf("matching: unmatched vertex %d has mate edge %d", v, r.MateEdge[v])
			}
			continue
		}
		if int(m) >= n {
			return fmt.Errorf("matching: mate[%d] = %d out of range", v, m)
		}
		if r.Mate[m] != uint32(v) {
			return fmt.Errorf("matching: asymmetric pair %d -> %d -> %d", v, m, r.Mate[m])
		}
		e := r.MateEdge[v]
		if e == Unmatched || int(e) >= g.NumArcs() {
			return fmt.Errorf("matching: matched vertex %d has invalid mate edge %d", v, e)
		}
		if r.MateEdge[m] != e {
			return fmt.Errorf("matching: pair (%d,%d) disagrees on mate edge: %d vs %d (torn payload)", v, m, e, r.MateEdge[m])
		}
		// The arc must join exactly this pair.
		src := uint32(g.ArcSource(int(e)))
		dst := targets[e]
		if !(src == uint32(v) && dst == m) && !(src == m && dst == uint32(v)) {
			return fmt.Errorf("matching: mate edge %d joins (%d,%d), not (%d,%d)", e, src, dst, v, m)
		}
	}
	// Maximality: every edge must have a matched endpoint (self-loops
	// cannot be matched and are exempt).
	for v := 0; v < n; v++ {
		for j := offsets[v]; j < offsets[v+1]; j++ {
			u := targets[j]
			if u == uint32(v) {
				continue
			}
			if r.Mate[v] == Unmatched && r.Mate[u] == Unmatched {
				return fmt.Errorf("matching: edge (%d,%d) joins two unmatched vertices — not maximal", v, u)
			}
		}
	}
	return nil
}

// SequentialGreedy returns a maximal matching built by a greedy edge scan,
// the baseline for size comparisons (any maximal matching is at least half
// the maximum matching).
func SequentialGreedy(g *graph.Graph) Result {
	n := g.NumVertices()
	mate := make([]uint32, n)
	mateEdge := make([]uint32, n)
	for i := range mate {
		mate[i] = Unmatched
		mateEdge[i] = Unmatched
	}
	offsets, targets := g.Offsets(), g.Targets()
	for v := 0; v < n; v++ {
		if mate[v] != Unmatched {
			continue
		}
		for j := offsets[v]; j < offsets[v+1]; j++ {
			u := targets[j]
			if u != uint32(v) && mate[u] == Unmatched {
				mate[v] = u
				mate[u] = uint32(v)
				mateEdge[v] = j
				mateEdge[u] = j
				break
			}
		}
	}
	return Result{Mate: mate, MateEdge: mateEdge, Iterations: 1}
}
