// Team regions: the machine's one way to run work on its workers.
//
// The paper's OpenMP kernels open a single `#pragma omp parallel` region
// around the whole round loop (Figures 3-5) and pay one team barrier per
// round. Team reproduces that shape: the kernel body runs once on all P
// workers simultaneously, and the in-region primitives on TeamCtx — For /
// ForWorker / Range / Bounds / Steal (work-shared loop ending in a team
// barrier), Single (one worker executes, the rest wait), and Barrier —
// mirror `omp for`, `omp single` and `#pragma omp barrier`. As OpenMP's
// master thread is, the caller is worker 0 of the team: it runs its copy of
// the body next to the P-1 helpers. Entering a region costs the region
// barrier's two P-party phases; each round inside it costs one P-party team
// barrier.
//
// The Parallel* entry points are one-loop regions: each worker runs its
// share of the loop with no trailing team barrier, because the region's
// end phase already joins the workers.
//
// A team body is SPMD code: every worker executes the same statements on
// the same shared state, so control flow that feeds a team primitive
// (loop trip counts, the n passed to For/Range, break decisions) must be
// computed identically by all workers — either from worker-local
// deterministic state or from shared state read after a barrier. exec.Flag
// packages the standard convergence-flag pattern race-free.
package machine

import (
	"runtime"
	"sync/atomic"
	"time"

	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/sched"
)

// teamSpins bounds busy-waiting in team-internal spin loops before
// yielding, mirroring the barrier package's spin-then-yield policy.
const teamSpins = 128

// teamAbort is the sentinel panic a worker raises to bail out of a team
// body after another worker's panic poisoned the region. It is recovered
// by the team driver and never recorded as a user panic.
type teamAbort struct{}

// teamBarrier is the sense-reversing barrier of the rounds inside a region,
// with the P workers as parties. Unlike barrier.Sense it is abortable: when
// a worker panics inside a team body it can never arrive, so waiters poll
// the machine's abort flag and bail out instead of deadlocking. After an
// aborted region the internal state is mid-phase garbage; the driver
// replaces the barrier wholesale.
type teamBarrier struct {
	parties int32
	count   atomic.Int32
	sense   atomic.Uint32
}

func newTeamBarrier(parties int) *teamBarrier {
	b := &teamBarrier{parties: int32(parties)}
	b.count.Store(int32(parties))
	return b
}

// wait blocks until all workers arrive, returning false if the team was
// aborted while waiting.
func (b *teamBarrier) wait(abort *atomic.Bool) bool {
	local := b.sense.Load() ^ 1
	if b.count.Add(-1) == 0 {
		b.count.Store(b.parties)
		b.sense.Store(local)
		return true
	}
	for spins := 0; b.sense.Load() != local; spins++ {
		if spins > teamSpins {
			// Abort is the cold path: check it only once spinning has
			// clearly stalled, keeping the hot release loop load-only.
			if abort.Load() {
				return false
			}
			runtime.Gosched()
		}
	}
	return true
}

// TeamCtx is one worker's view of a team region. It is valid only inside
// the body passed to Machine.Team and must not leak to other goroutines.
type TeamCtx struct {
	m *Machine
	// W is this worker's id in [0, P). Use it for worker-local scratch
	// that lives across rounds without per-round closure captures.
	W int
	// epoch counts this worker's dynamic/guided/stealing work-shared
	// loops, keying the shared loop-state reset protocol. All workers
	// execute the same loop sequence, so their epochs agree.
	epoch uint64
	// loops counts this worker's work-shared loops of every policy — the
	// region-local round ids event-trace spans carry. Like epoch it
	// advances identically in every SPMD copy.
	loops uint32
	// The machine keeps one TeamCtx per worker in a slice; pad each to its
	// own cache lines so the per-loop counter updates never false-share.
	_ [128 - 4*8]byte
}

// beginLoop advances the worker's loop counter and opens the loop's
// event-trace round span — a nil-buffer no-op when tracing is off.
func (tc *TeamCtx) beginLoop() evtrace.Active {
	tc.loops++
	return tc.m.evt.Worker(tc.W).Begin(evtrace.KindRound, tc.loops)
}

// P returns the team size (the machine's worker count).
func (tc *TeamCtx) P() int { return tc.m.p }

// Barrier synchronizes the team: no worker proceeds until all have
// arrived. It is the in-region synchronization point the paper requires
// between a concurrent-write round and its dependent reads. A one-worker
// team has nothing to wait for.
func (tc *TeamCtx) Barrier() {
	if tc.m.p == 1 {
		return
	}
	// Metrics on: time the wait and credit it to this worker's shard; the
	// machine's region-wall accounting subtracts it from busy time. The
	// event-trace barrier span (nil-buffer no-op when tracing is off)
	// carries the current loop id, so barrier skew lines up with the
	// round whose writes the barrier publishes.
	if tc.m.rec != nil {
		a := tc.m.evt.Worker(tc.W).Begin(evtrace.KindBarrier, tc.loops)
		t0 := time.Now()
		ok := tc.m.teamBar.wait(&tc.m.teamAborted)
		tc.m.rec.Shard(tc.W).AddBarrierWait(time.Since(t0))
		a.End()
		if !ok {
			panic(teamAbort{})
		}
		return
	}
	if !tc.m.teamBar.wait(&tc.m.teamAborted) {
		panic(teamAbort{})
	}
}

// For executes one work-shared PRAM round inside the region: body(i) for
// every i in [0, n), partitioned over the team by the machine's policy,
// with a team barrier before For returns. All workers must call For with
// the same n (SPMD discipline); bodies run concurrently on distinct i.
func (tc *TeamCtx) For(n int, body func(i int)) {
	tc.forShare(n, body)
	tc.Barrier()
}

// ForWorker is For with the executing worker's id passed to the body, for
// per-worker accumulators.
func (tc *TeamCtx) ForWorker(n int, body func(i, w int)) {
	w := tc.W
	tc.For(n, func(i int) { body(i, w) })
}

// Range executes one work-shared round in block form: this worker's
// contiguous share [lo, hi) of [0, n) is passed once, followed by a team
// barrier. The partitioning is always Block, like ParallelRange. The
// worker id is available as tc.W.
func (tc *TeamCtx) Range(n int, body func(lo, hi int)) {
	tc.rangeShare(n, body)
	tc.Barrier()
}

// Bounds executes one work-shared round in block form over caller-supplied
// shard boundaries: this worker receives [bounds[tc.W], bounds[tc.W+1])
// once, followed by a team barrier — the in-region analogue of
// Machine.ParallelBounds. All workers must pass the same bounds slice (SPMD
// discipline), with len(bounds) == P()+1 and non-decreasing entries; a
// worker with an empty shard goes straight to the barrier.
func (tc *TeamCtx) Bounds(bounds []int, body func(lo, hi int)) {
	if len(bounds) != tc.m.p+1 {
		panic("machine: TeamCtx.Bounds: bounds length must be P()+1")
	}
	tc.boundsShare(bounds, body)
	tc.Barrier()
}

// Steal executes one work-shared round under work stealing regardless of
// the machine's policy — the in-region analogue of Machine.ParallelSteal.
// The index space [0, n) is cut into chunks seeded onto per-worker deques;
// body receives each chunk this worker claims (its own share in ascending
// order, then whatever it steals), followed by a team barrier. All workers
// must call Steal with the same n (SPMD discipline).
func (tc *TeamCtx) Steal(n int, body func(lo, hi int)) {
	tc.stealShare(n, body)
	tc.Barrier()
}

// Single executes f on exactly one worker (worker 0) while the others wait
// at the closing team barrier — the in-region replacement for caller-side
// serial sections (OpenMP's `single`). Data f reads must have been
// published by a preceding For/Range/Barrier; f's writes are visible to
// the whole team after Single returns.
func (tc *TeamCtx) Single(f func()) {
	if tc.W == 0 {
		f()
	}
	tc.Barrier()
}

// forShare runs this worker's share of a work-shared loop over [0, n)
// under the machine's policy, without a closing barrier.
func (tc *TeamCtx) forShare(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	m := tc.m
	a := tc.beginLoop()
	switch m.policy {
	case sched.Stealing:
		tc.drainSteal(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				body(i)
			}
		})
	case sched.Dynamic, sched.Guided:
		tc.resetLoop(func() { m.teamCur.Reset(n) })
		sched.For(m.policy, m.teamCur, n, m.p, tc.W, body)
	default:
		sched.For(m.policy, nil, n, m.p, tc.W, body)
	}
	a.End()
}

// rangeShare runs this worker's Block share of [0, n) once, without a
// closing barrier; an empty share skips the body.
func (tc *TeamCtx) rangeShare(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	a := tc.beginLoop()
	if lo, hi := sched.BlockRange(n, tc.m.p, tc.W); lo < hi {
		body(lo, hi)
	}
	a.End()
}

// boundsShare runs this worker's caller-placed shard once, without a
// closing barrier; an empty shard skips the body.
func (tc *TeamCtx) boundsShare(bounds []int, body func(lo, hi int)) {
	a := tc.beginLoop()
	if lo, hi := bounds[tc.W], bounds[tc.W+1]; lo < hi {
		body(lo, hi)
	}
	a.End()
}

// stealShare runs this worker's part of a stealing loop over [0, n),
// without a closing barrier.
func (tc *TeamCtx) stealShare(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	a := tc.beginLoop()
	tc.drainSteal(n, body)
	a.End()
}

// drainSteal seeds the machine's stealer for [0, n) (once per loop, via
// resetLoop), drains it from this worker, and records the chunk counts.
func (tc *TeamCtx) drainSteal(n int, body func(lo, hi int)) {
	m := tc.m
	tc.resetLoop(func() { m.steal.Reset(n, m.chunk) })
	c := m.steal.Run(tc.W, body)
	m.rec.Shard(tc.W).AddSteal(c.Local, c.Steals, c.Fails)
	m.evt.Worker(tc.W).Point(evtrace.KindSteal, tc.loops, evtrace.PackSteal(c.Local, c.Steals, c.Fails))
}

// resetLoop runs reset — the re-seeding of the machine's shared cursor or
// stealer for a fresh loop — on exactly one worker per loop instance, and
// returns on every worker only once it is visible. The winner takes the
// loop's ticket (a CAS from epoch-1 to epoch) and publishes through the
// ready word; the rest spin until the ready word reaches their epoch.
// Cursor and stealing loops share the one epoch sequence: every worker
// executes the same loop sequence, so the ticket words stay consistent
// however the two kinds interleave. All claims of the previous loop
// happened before its closing barrier, which every worker passed before
// entering this loop, so the reset can never race a stale claim.
func (tc *TeamCtx) resetLoop(reset func()) {
	m := tc.m
	tc.epoch++
	e := tc.epoch
	if m.teamTicket.CompareAndSwap(e-1, e) {
		reset()
		m.teamReady.Store(e)
		return
	}
	for spins := 0; m.teamReady.Load() < e; spins++ {
		if spins > teamSpins {
			if m.teamAborted.Load() {
				panic(teamAbort{})
			}
			runtime.Gosched()
		}
	}
}

// Team runs body once on all P workers simultaneously — one persistent
// parallel region, the shape of the paper's OpenMP kernels. The caller is
// worker 0: it runs its own copy of body and returns once every worker has
// left the region. Rounds inside the region are expressed with
// tc.For/tc.Range (implicit team barrier each) and serial sections with
// tc.Single, so a whole kernel pays region entry once. On a one-worker
// machine the caller is the whole team.
//
// If a worker's body panics, the region is aborted: the remaining workers
// bail at their next team synchronization point, the panic is re-raised on
// the caller, and the machine remains usable.
func (m *Machine) Team(body func(tc *TeamCtx)) {
	if m.closed {
		panic("machine: use after Close")
	}
	// Fresh region: worker-local epochs restart at 0, so rewind the shared
	// loop-reset protocol words. The start barrier publishes this to the
	// helpers.
	m.teamTicket.Store(0)
	m.teamReady.Store(0)
	m.step = stepDesc{region: body, seq: m.nextSeq(), panics: m.step.panics}
	if m.bar != nil {
		m.bar.Wait(0) // start phase: the helpers pick up the region body
	}
	m.work(m.step, 0)
	m.endPhase(m.step, 0)
	if m.teamAborted.Load() {
		// The team barrier was abandoned mid-phase; replace it.
		m.teamBar = newTeamBarrier(m.p)
		m.teamAborted.Store(false)
	}
	m.reraise()
}

// runRegion executes worker id's copy of the region body on its reset
// context, capturing panics so a failing body cannot deadlock the
// machine: a user panic is recorded and poisons the region (peers bail at
// their next barrier with a teamAbort, which is swallowed here).
func (m *Machine) runRegion(st stepDesc, id int) {
	defer func() {
		if pv := recover(); pv != nil {
			if _, bail := pv.(teamAbort); !bail {
				st.panics[id] = pv
				m.teamAborted.Store(true)
			}
		}
	}()
	tc := &m.tcs[id]
	tc.epoch, tc.loops = 0, 0
	st.region(tc)
}

// Exec selects how a kernel drives the machine: one persistent team
// region per kernel, or a serial counting replay (trace).
type Exec int

const (
	// ExecTeam runs the whole kernel inside one Team region. It is the
	// zero value and every machine's default.
	ExecTeam Exec = iota
	// ExecTrace replays the kernel serially with P logical workers,
	// counting steps, barriers, and per-worker iterations instead of
	// using the workers (see internal/core/exec). It is an observability
	// mode, not a timed one, so Execs excludes it.
	ExecTrace
)

// Execs lists the timed execution modes in presentation order. ExecTrace
// is deliberately absent: its serial replay measures structure, not time.
var Execs = []Exec{ExecTeam}

// String names the execution mode as the -exec flag spells it ("team",
// "trace").
func (e Exec) String() string {
	switch e {
	case ExecTeam:
		return "team"
	case ExecTrace:
		return "trace"
	default:
		return "unknown-exec"
	}
}

// ParseExec converts an execution-mode name (as produced by String) back
// to an Exec. It accepts every backend, including the untimed "trace".
func ParseExec(s string) (Exec, bool) {
	for _, e := range []Exec{ExecTeam, ExecTrace} {
		if e.String() == s {
			return e, true
		}
	}
	return 0, false
}
