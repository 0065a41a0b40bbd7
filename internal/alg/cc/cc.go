// Package cc implements the paper's third benchmark: the Awerbuch–Shiloach
// connected-components algorithm (a Shiloach–Vishkin variant with
// simplified hooking decisions), which requires *arbitrary* CRCW concurrent
// writes.
//
// Vertices carry a parent pointer D forming a forest; each iteration is a
// fixed sequence of PRAM rounds:
//
//  1. star check                 (is every vertex in a depth-<=1 tree?)
//  2. conditional star hooking   for each arc (u,v): if star[u] and
//     D[v] < D[u] then D[D[u]] := D[v]
//  3. star check
//  4. directional star hooking   for each arc (u,v): if star[u] and
//     D[v] > D[u] then D[D[u]] := D[v]
//  5. pointer jumping            D[v] := D[D[v]]
//
// until nothing changes; on termination every component is a single star
// and D is the component labelling.
//
// The hooking steps are the arbitrary concurrent write: many arcs
// simultaneously hook the same star root r to *different* targets, and the
// winner also records which arc performed the hook (HookEdge[r]) — a
// multi-word payload whose fields must come from one writer. This is
// exactly why the paper implements no naive CC variant: "this algorithm
// concurrently writes updates to multiple arrays during the hooking stage,
// rendering the naive method an unsafe approach". Run(cw.Naive) therefore
// panics. The recorded hook arcs double as a spanning forest of the graph,
// which the validator checks — a strong end-to-end witness that every
// committed tuple was untorn.
//
// Cycle freedom relies on three ingredients: hooking reads come from a
// phase-start snapshot of D (PRAM reads-before-writes semantics), each root
// is hooked by at most one winner per round (the concurrent-write guard),
// and both hooking rules are directional — conditional hooks only onto
// strictly smaller roots, the second phase only onto strictly larger ones.
// The textbook `D[v] != D[u]` rule for the second phase is NOT safe under
// arbitrary winner selection (see the comment in hookPhase); the
// directional variant preserves the algorithm's structure, CW pattern and
// O(log n) behaviour while being provably acyclic.
package cc

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/graph"
)

// NoHook marks a vertex that never performed a hook (never was a hooked
// root).
const NoHook = math.MaxUint32

// Result gives read-only access to the arrays produced by a run.
type Result struct {
	// Labels[v] is the id of the root of v's component. Roots are
	// arbitrary component members (not necessarily minima), but labels are
	// consistent: two vertices share a label iff they are connected.
	Labels []uint32
	// HookEdge[r] is the CSR arc index whose hook attached former root r
	// beneath another tree, or NoHook. The non-NoHook arcs form a spanning
	// forest.
	HookEdge []uint32
	// Iterations is the number of hook/shortcut iterations executed.
	Iterations int
}

// Kernel holds the shared arrays for repeated CC runs over one graph.
type Kernel struct {
	m *machine.Machine
	g *graph.Graph
	n int

	d        []uint32 // parent pointers
	dprev    []uint32 // phase-start snapshot of d read by hooking rounds
	star     []uint32 // 1 = in a star
	hookEdge []uint32

	cells *cw.Array
	gates *cw.GateArray
	mtx   *cw.MutexArray

	trace *exec.TraceStats // structural record of the last trace-backend run

	// steal routes random mate's hooking loop through the work-stealing
	// scheduler: a hub's arcs are contiguous in CSR order, so on skewed
	// graphs a static arc share concentrates both the branchy root checks
	// and the CAS contention on one worker. Defaults to the graph's degree
	// skew; see SetStealing.
	steal bool

	// bitmap switches random mate's hooking claim to a bit-packed
	// fetch-OR array (see SetBitmap); hookBits is cleared each iteration
	// inside the snapshot round.
	bitmap   bool
	hookBits *cw.BitArray
}

// NewKernel returns a CC kernel over g executed on m. The machine and graph
// are borrowed, not owned. g must be undirected (both arc directions
// stored); the hooking safety argument depends on it.
func NewKernel(m *machine.Machine, g *graph.Graph) *Kernel {
	if !g.Undirected() {
		panic("cc: kernel requires an undirected graph")
	}
	n := g.NumVertices()
	k := &Kernel{
		steal:    graph.DegreeSkewed(g),
		m:        m,
		g:        g,
		n:        n,
		d:        make([]uint32, n),
		dprev:    make([]uint32, n),
		star:     make([]uint32, n),
		hookEdge: make([]uint32, n),
		cells:    cw.NewArray(n, cw.Packed),
		gates:    cw.NewGateArray(n, cw.Packed),
		mtx:      cw.NewMutexArray(n),
	}
	m.Stamp(k.cells)
	// The hooking rounds find each arc share's first source vertex from the
	// CSR offsets (see hookPhase), so the kernel keeps no per-arc state.
	return k
}

// SetStealing selects whether random mate's hooking loop runs under the
// work-stealing scheduler instead of the machine's configured policy.
// Defaults to graph.DegreeSkewed(g). Stealing changes which worker walks
// which arcs, never who may write what, so results are unaffected. The
// Awerbuch–Shiloach runs are untouched: their hook phase is a regular
// whole-range sweep. Call it before Run*, not during.
func (k *Kernel) SetStealing(on bool) { k.steal = on }

// Stealing returns whether random mate's hooking uses work stealing.
func (k *Kernel) Stealing() bool { return k.steal }

// SetBitmap selects a bit-packed (cw.BitArray) winner-selection state for
// random mate's hooking claim: "root r hooked this iteration" is a boolean
// common write, so a fetch-OR on r's bit replaces the round-stamped CAS-LT
// cell, and the root checks that precede most attempts read 512 roots per
// cache line instead of 16. The bits carry no round id, so — unlike
// CAS-LT, whose point is reinit-free rounds — the bitmap is cleared once
// per iteration, folded into the forest-snapshot round at 1/64 of the
// word-array cost (see DESIGN §3e for why this trade differs from the
// gatekeeper's O(N) word reinit). Winner selection semantics are
// unchanged: at most one hook commits per root per iteration, so results
// match the word runs. The Awerbuch–Shiloach runs ignore it. Call it
// before Run*, not during.
func (k *Kernel) SetBitmap(on bool) { k.bitmap = on }

// Bitmap returns whether random mate's hooking claim is bit-packed.
func (k *Kernel) Bitmap() bool { return k.bitmap }

// Prepare resets the forest to singletons and the hook records. Prepare is
// the untimed initialization phase; CAS-LT cells are reused across runs,
// which claim them with fresh round ids from the machine.
func (k *Kernel) Prepare() {
	k.m.ParallelRange(k.n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			k.d[i] = uint32(i)
			k.hookEdge[i] = NoHook
		}
		k.gates.ResetRange(lo, hi)
	})
}

// Run executes the algorithm with the given method under the machine's
// default execution backend and returns a Result view over the kernel's
// arrays (valid until the next Prepare/Run). Prepare must have been called
// first. cw.CASLT claims the hooked root's cell with a round id from the
// machine's round counter, so no state is re-initialized; cw.Gatekeeper
// fetch-and-adds the root's gate and re-zeroes every gate after each
// hooking phase, inside the timed region; cw.GatekeeperChecked adds the
// load pre-check; cw.Mutex hooks under the root's lock. Run panics for
// cw.Naive: naive arbitrary concurrent writes are unsafe (see package
// comment).
func (k *Kernel) Run(method cw.Method) Result {
	return k.RunExec(k.m.Exec(), method)
}

// RunExec is Run under an explicit execution backend.
func (k *Kernel) RunExec(e machine.Exec, method cw.Method) Result {
	switch method {
	case cw.CASLT, cw.Gatekeeper, cw.GatekeeperChecked, cw.Mutex:
		return k.runExec(e, method, nil)
	case cw.Naive:
		panic("cc: the naive method cannot implement the arbitrary multi-array hooking write (see the paper, Section 7)")
	default:
		panic("cc: unknown method " + method.String())
	}
}

// Trace returns the structural record of the kernel's last run under the
// trace backend, or nil if the last run used a timed backend.
func (k *Kernel) Trace() *exec.TraceStats { return k.trace }

// maxIterations bounds the convergence loop: Awerbuch–Shiloach provably
// finishes in O(log n) iterations, so exceeding a generous multiple
// indicates an implementation bug rather than a slow input.
func (k *Kernel) maxIterations() int {
	return 4*bits.Len(uint(k.n)) + 16
}

// starCheck recomputes k.star from k.d in three rounds. D is not written
// during the check, so plain reads of d are safe; star is written with
// atomic stores because marks race benignly (common CW of 0).
func (k *Kernel) starCheck(ctx exec.Ctx) {
	d, star := k.d, k.star
	ctx.Range(k.n, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			star[v] = 1
		}
	})
	ctx.Range(k.n, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			p := d[v]
			gp := d[p]
			if p != gp {
				// v has a grandparent: neither v nor the grandparent can
				// be in a star.
				atomic.StoreUint32(&star[v], 0)
				atomic.StoreUint32(&star[gp], 0)
			}
		}
	})
	// Propagate the root's verdict to depth-1 members. Only lowers, never
	// raises, so racy interleavings within the round are benign.
	ctx.Range(k.n, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			if atomic.LoadUint32(&star[v]) == 1 && atomic.LoadUint32(&star[d[v]]) == 0 {
				atomic.StoreUint32(&star[v], 0)
			}
		}
	})
}

// shortcut performs one pointer-jumping round, marking iteration it's slot
// of the rotating flag if any pointer moved. Reading a neighbour's
// already-jumped pointer only jumps further up the (acyclic) forest, so
// atomic loads of concurrent writes are safe.
func (k *Kernel) shortcut(ctx exec.Ctx, changed *exec.Flag, it uint32) {
	d := k.d
	ctx.Range(k.n, func(lo, hi, _ int) {
		progress := false
		for v := lo; v < hi; v++ {
			p := atomic.LoadUint32(&d[v])
			gp := atomic.LoadUint32(&d[p])
			if p != gp {
				atomic.StoreUint32(&d[v], gp)
				progress = true
			}
		}
		if progress {
			changed.Set(it, 1)
		}
	})
}

// hookPhase runs one hooking round over all arcs under CW round id round,
// reading parent pointers from the phase-start snapshot dprev (PRAM
// reads-before-writes semantics: without the snapshot, an arc sourced at a
// root hooked earlier in the same phase reads its freshly written pointer
// and can hook its new parent back, forming a cycle). conditional selects
// the D[v] < D[u] rule (vs. D[v] > D[u]); progress marks iteration it's
// slot of the rotating flag. Every wanting arc attempts its write through
// hook, under method or, when res is set, the caller's resolver; a method
// that needs re-initialization resets its array in one more round.
//
// The round parallelizes "across all edges to perform the hooking step",
// as the paper describes: each worker takes its share [lo, hi) of the arc
// indices and walks it source by source from graph.ArcSource(lo), reading
// star[u] and dprev[u] once per source and skipping the adjacency list of a
// source outside a star. Each arc of a star source still makes its own
// attempt, so the methods are compared on the same claims.
func (k *Kernel) hookPhase(ctx exec.Ctx, conditional bool, method cw.Method, res cw.Resolver, round uint32, changed *exec.Flag, it uint32) {
	d, star, offsets, targets := k.dprev, k.star, k.g.Offsets(), k.g.Targets()
	// Snapshot the parent pointers; this copy is part of every method's
	// timed cost, identically, so method comparisons are unaffected.
	ctx.Range(k.n, func(lo, hi, _ int) {
		copy(d[lo:hi], k.d[lo:hi])
	})
	rec := ctx.Metrics()
	ctx.Range(len(targets), func(lo, hi, w int) {
		sh := rec.Shard(w)
		progress := false
		for u, j := k.g.ArcSource(lo), lo; j < hi; u++ {
			end := min(int(offsets[u+1]), hi)
			if star[u] == 0 {
				j = end
				continue
			}
			du := d[u]
			for ; j < end; j++ {
				dv := d[targets[j]]
				var want bool
				if conditional {
					want = dv < du
				} else {
					// Directional variant of the textbook `dv != du` rule:
					// hook only onto strictly larger roots. With an arbitrary
					// winner per root per round, `!=` is unsafe — a singleton
					// hooked into star A during the conditional phase can
					// make A and another star B adjacent afterwards, and `!=`
					// then hooks A and B onto each other, forming a 2-cycle.
					// With `>` every unconditional write increases ids: a
					// hypothetical cycle a1 -> a2 -> ... -> ak -> a1 of
					// same-round hooks would need a1 < a2 < ... < ak < a1
					// (hook targets in star trees are exactly the roots'
					// ids), a contradiction. Stagnation is impossible: a star
					// root that is a local minimum among neighbouring roots
					// hooks here, a local maximum hooks in the conditional
					// phase.
					want = dv > du
				}
				if want && k.hook(sh, method, res, round, int(du), uint32(j), dv) {
					progress = true
				}
			}
		}
		if progress {
			changed.Set(it, 1)
		}
	})
	if method.NeedsReset() {
		ctx.Range(k.n, func(lo, hi, _ int) {
			if res != nil {
				res.ResetRange(lo, hi)
			} else {
				k.gates.ResetRange(lo, hi)
			}
		})
	}
}

// hook attempts the guarded multi-array hook of root r via arc j onto
// target in CW round round, under method or, when res is set, the caller's
// resolver, and reports whether this caller won the write. The
// attempt is recorded on the worker's metrics shard sh (nil when metrics
// are off).
func (k *Kernel) hook(sh *metrics.Shard, method cw.Method, res cw.Resolver, round uint32, r int, j, target uint32) bool {
	var o cw.Outcome
	switch {
	case res != nil:
		won := false
		o = res.DoOutcome(r, round, func() { won = k.commit(r, j, target) })
		sh.Claim(r, round, o)
		return won
	case method == cw.CASLT:
		o = k.cells.TryClaimOutcome(r, round)
	case method == cw.Gatekeeper:
		o = k.gates.TryEnterOutcome(r)
	case method == cw.GatekeeperChecked:
		o = k.gates.TryEnterCheckedOutcome(r)
	default: // cw.Mutex
		k.mtx.Lock(r)
		won := k.commit(r, j, target)
		k.mtx.Unlock(r)
		// Each lock acquisition is one executed attempt; the root
		// re-verification inside commit decides win/loss.
		o = cw.OutcomeLoss
		if won {
			o = cw.OutcomeWin
		}
		sh.Claim(r, round, o)
		return won
	}
	return sh.Claim(r, round, o) && k.commit(r, j, target)
}

// runExec drives the iteration structure shared by all methods under
// backend e, as one SPMD body around the whole convergence loop; the
// hooking writes go through method's guard or, when res is set, the
// caller's resolver. Each hooking phase claims with its own round id from
// ctx.NextRound, so the CAS-LT cells are never re-initialized; an
// iteration draws both ids before either phase runs. The per-iteration
// "did anything change?" word is the region's rotating Flag, so no round
// is spent resetting it.
func (k *Kernel) runExec(e machine.Exec, method cw.Method, res cw.Resolver) Result {
	maxIter := k.maxIterations()
	var iters int
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		changed := ctx.Flag()
		it := uint32(0)
		for {
			changed.Set(it+1, 0) // prime next iteration's flag (common CW)
			r1 := ctx.NextRound()
			r2 := ctx.NextRound()

			k.starCheck(ctx)
			k.hookPhase(ctx, true, method, res, r1, changed, it)

			k.starCheck(ctx)
			k.hookPhase(ctx, false, method, res, r2, changed, it)

			k.shortcut(ctx, changed, it)

			it++
			if changed.Get(it-1) == 0 {
				if ctx.Worker() == 0 {
					iters = int(it)
				}
				break
			}
			if int(it) > maxIter {
				panic(fmt.Sprintf("cc: no convergence after %d iterations on %d vertices (bug)", it, k.n))
			}
		}
	})
	return Result{Labels: k.d, HookEdge: k.hookEdge, Iterations: iters}
}

// commit writes the hook tuple; it runs only on a claimant holding the
// exclusive write right for d[r] in the current round. Because hook
// conditions are evaluated on the phase-start snapshot, r is always a
// phase-start root here; the verification is pure defense in depth (it is
// stable because the caller owns the only write right to d[r] this round).
func (k *Kernel) commit(r int, j, target uint32) bool {
	if k.d[r] != uint32(r) {
		return false
	}
	k.d[r] = target
	k.hookEdge[r] = j
	return true
}

// SequentialLabels computes component labels with a union-find (path
// halving + union by smaller id), the validation baseline. Labels are the
// smallest vertex id of each component.
func SequentialLabels(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	offsets, targets := g.Offsets(), g.Targets()
	for v := 0; v < n; v++ {
		for j := offsets[v]; j < offsets[v+1]; j++ {
			ru, rv := find(uint32(v)), find(targets[j])
			if ru != rv {
				if ru < rv {
					parent[rv] = ru
				} else {
					parent[ru] = rv
				}
			}
		}
	}
	labels := make([]uint32, n)
	for v := range labels {
		labels[v] = find(uint32(v))
	}
	return labels
}
