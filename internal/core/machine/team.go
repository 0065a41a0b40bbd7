// Team regions: the machine's one way to run work on its workers.
//
// The paper's OpenMP kernels open a single `#pragma omp parallel` region
// around the whole round loop (Figures 3-5) and pay one team barrier per
// round. Team reproduces that shape: the kernel body runs once on all P
// workers simultaneously, and the in-region primitives on TeamCtx — For /
// ForWorker / Range / Bounds / StealRange (work-shared loop ending in a
// team barrier), Single (one worker executes, the rest wait), and Barrier —
// mirror `omp for`, `omp single` and `#pragma omp barrier`. TeamCtx is
// also the team backend's exec.Ctx: the exec package hands it to kernel
// bodies as it is. As OpenMP's master thread is, the caller is worker 0 of
// the team: it runs its copy of the body next to the P-1 helpers. Entering
// a region costs the region barrier's two P-party phases; each round inside
// it costs one P-party team barrier.
//
// The Parallel* entry points are one-loop regions: each worker runs its
// share of the loop with no trailing team barrier, because the region's
// end phase already joins the workers.
//
// A team body is SPMD code: every worker executes the same statements on
// the same shared state, so control flow that feeds a team primitive
// (loop trip counts, the n passed to For/Range, break decisions) must be
// computed identically by all workers — either from worker-local
// deterministic state or from shared state read after a barrier. Flag
// packages the standard convergence-flag pattern race-free.
package machine

import (
	"sync/atomic"
	"time"

	"crcwpram/internal/core/metrics"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/sched"
)

// teamAbort is the sentinel panic a worker raises to bail out of a team
// body after another worker's panic poisoned the region. It is recovered
// by the team driver and never recorded as a user panic.
type teamAbort struct{}

// TeamCtx is one worker's view of a team region, and the team backend's
// exec.Ctx. It is valid only inside the body passed to Machine.Team and
// must not leak to other goroutines.
//
// On a metrics machine worker 0 is the region's coordinator: it times each
// work-shared loop, closing barrier included, and counts the NextRound
// advances, so one worker writes the recorder's round counters. On a chaos
// machine the round primitives are the injector's yield points: a stall
// before and after each For iteration and each Range/Bounds share, a delay
// before and a stall after each StealRange chunk, and jitter at an
// explicit Barrier's arrival. The Parallel* one-loop regions call the
// share primitives and are never perturbed.
type TeamCtx struct {
	m *Machine
	// W is this worker's id in [0, P). Use it for worker-local scratch
	// that lives across rounds without per-round closure captures.
	W int
	// epoch counts this worker's dynamic/guided/stealing work-shared
	// loops, keying the shared loop-state reset protocol. All workers
	// execute the same loop sequence, so their epochs agree.
	epoch uint32
	// loops counts this worker's work-shared loops of every policy — the
	// region-local round ids event-trace spans carry. Like epoch it
	// advances identically in every SPMD copy.
	loops uint32
	// round is this worker's copy of the machine's round counter, which
	// NextRound advances; like loops it agrees across the SPMD copies.
	round uint32
	// The machine keeps one TeamCtx per worker in a slice; pad each to its
	// own cache lines so the per-loop counter updates never false-share.
	_ [128 - 2*8 - 3*4]byte
}

// beginLoop advances the worker's loop counter and opens the loop's
// event-trace round span — a nil-buffer no-op when tracing is off.
func (tc *TeamCtx) beginLoop() evtrace.Active {
	tc.loops++
	return tc.m.evt.Worker(tc.W).Begin(evtrace.KindRound, tc.loops)
}

// coordinates reports whether this worker records the coordinator
// metrics: worker 0 on a metrics machine.
func (tc *TeamCtx) coordinates() bool { return tc.W == 0 && tc.m.rec != nil }

// openLoop starts a work-shared loop's clock: the start time on the
// coordinator, the zero time on every other worker.
func (tc *TeamCtx) openLoop() (t0 time.Time) {
	if tc.coordinates() {
		t0 = time.Now()
	}
	return t0
}

// closeLoop ends a work-shared loop opened at t0 with its team barrier;
// the coordinator then credits the loop's wall time, closing barrier
// included, as one round.
func (tc *TeamCtx) closeLoop(t0 time.Time) {
	tc.barrier()
	if tc.coordinates() {
		tc.m.rec.AddRoundTime(time.Since(t0))
	}
}

// P returns the team size (the machine's worker count).
func (tc *TeamCtx) P() int { return tc.m.p }

// Worker returns this worker's id, tc.W.
func (tc *TeamCtx) Worker() int { return tc.W }

// Barrier synchronizes the team: no worker proceeds until all have
// arrived. It is the in-region synchronization point the paper requires
// between a concurrent-write round and its dependent reads. On a chaos
// machine the arrival is a barrier-jitter site, even on a one-worker team,
// which has nothing to wait for.
func (tc *TeamCtx) Barrier() {
	if inj := tc.m.chaos; inj != nil {
		inj.BarrierJitter(tc.W)
	}
	tc.barrier()
}

// barrier is the team barrier itself, which closes every work-shared loop
// and Single: Barrier without its chaos site.
func (tc *TeamCtx) barrier() {
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
		ok := tc.m.rounds.Await(&tc.m.teamAborted)
		tc.m.rec.Shard(tc.W).AddBarrierWait(time.Since(t0))
		a.End()
		if !ok {
			panic(teamAbort{})
		}
		return
	}
	if !tc.m.rounds.Await(&tc.m.teamAborted) {
		panic(teamAbort{})
	}
}

// For executes one work-shared PRAM round inside the region: body(i) for
// every i in [0, n), partitioned over the team by the machine's policy,
// with a team barrier before For returns. All workers must call For with
// the same n (SPMD discipline); bodies run concurrently on distinct i.
func (tc *TeamCtx) For(n int, body func(i int)) {
	if inj := tc.m.chaos; inj != nil {
		w, f := tc.W, body
		body = func(i int) {
			inj.IterPre(w)
			f(i)
			inj.IterPost(w)
		}
	}
	t0 := tc.openLoop()
	tc.forShare(n, body)
	tc.closeLoop(t0)
}

// ForWorker is For with the executing worker's id passed to the body, for
// per-worker accumulators.
func (tc *TeamCtx) ForWorker(n int, body func(i, w int)) {
	w := tc.W
	tc.For(n, func(i int) { body(i, w) })
}

// Range executes one work-shared round in block form: this worker's
// contiguous share [lo, hi) of [0, n) is passed once with its id, followed
// by a team barrier. The partitioning is always Block, like ParallelRange.
// A worker with an empty share goes straight to the barrier.
func (tc *TeamCtx) Range(n int, body func(lo, hi, w int)) {
	body = tc.perturbShare(body)
	t0 := tc.openLoop()
	tc.rangeShare(n, body)
	tc.closeLoop(t0)
}

// Bounds executes one work-shared round in block form over caller-supplied
// shard boundaries: this worker receives [bounds[tc.W], bounds[tc.W+1])
// once with its id, followed by a team barrier — the in-region analogue of
// Machine.ParallelBounds. All workers must pass the same bounds slice (SPMD
// discipline), with len(bounds) == P()+1 and non-decreasing entries; a
// worker with an empty shard goes straight to the barrier.
func (tc *TeamCtx) Bounds(bounds []int, body func(lo, hi, w int)) {
	if len(bounds) != tc.m.p+1 {
		panic("machine: TeamCtx.Bounds: bounds length must be P()+1")
	}
	body = tc.perturbShare(body)
	t0 := tc.openLoop()
	tc.boundsShare(bounds, body)
	tc.closeLoop(t0)
}

// perturbShare wraps a Range/Bounds share body in the chaos injector's
// stall sites, one before and one after the share; on a machine without
// an injector it returns body unchanged.
func (tc *TeamCtx) perturbShare(body func(lo, hi, w int)) func(lo, hi, w int) {
	inj := tc.m.chaos
	if inj == nil {
		return body
	}
	return func(lo, hi, w int) {
		inj.IterPre(w)
		body(lo, hi, w)
		inj.IterPost(w)
	}
}

// StealRange executes one work-shared round under work stealing regardless
// of the machine's policy — the in-region analogue of
// Machine.ParallelSteal. The index space [0, n) is cut into chunks seeded
// onto per-worker deques; body receives each chunk this worker claims (its
// own share in ascending order, then whatever it steals) with this
// worker's id, followed by a team barrier. All workers must call
// StealRange with the same n (SPMD discipline).
func (tc *TeamCtx) StealRange(n int, body func(lo, hi, w int)) {
	if inj := tc.m.chaos; inj != nil {
		f := body
		body = func(lo, hi, w int) {
			inj.StealDelay(w)
			f(lo, hi, w)
			inj.IterPost(w)
		}
	}
	t0 := tc.openLoop()
	tc.stealShare(n, body)
	tc.closeLoop(t0)
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
	tc.barrier()
}

// Flag returns the machine's convergence flag, which every worker of the
// region shares and Team clears when the region opens.
func (tc *TeamCtx) Flag() *Flag { return &tc.m.flag }

// NextRound advances this worker's copy of the machine's round counter and
// returns the new id. All workers execute the same round sequence (SPMD
// discipline), so their copies agree without synchronization; Team keeps
// the highest as the region closes, and never rewinds it (exec.Run does,
// as a run opens). The coordinator credits each advance to the metrics
// recorder.
func (tc *TeamCtx) NextRound() uint32 {
	tc.round++
	if tc.coordinates() {
		tc.m.rec.AddRounds(1)
	}
	return tc.round
}

// Metrics returns the machine's live-metrics recorder, nil when metrics
// are off.
func (tc *TeamCtx) Metrics() *metrics.Recorder { return tc.m.rec }

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
func (tc *TeamCtx) rangeShare(n int, body func(lo, hi, w int)) {
	if n <= 0 {
		return
	}
	a := tc.beginLoop()
	if lo, hi := sched.BlockRange(n, tc.m.p, tc.W); lo < hi {
		body(lo, hi, tc.W)
	}
	a.End()
}

// boundsShare runs this worker's caller-placed shard once, without a
// closing barrier; an empty shard skips the body.
func (tc *TeamCtx) boundsShare(bounds []int, body func(lo, hi, w int)) {
	a := tc.beginLoop()
	if lo, hi := bounds[tc.W], bounds[tc.W+1]; lo < hi {
		body(lo, hi, tc.W)
	}
	a.End()
}

// stealShare runs this worker's part of a stealing loop over [0, n),
// without a closing barrier.
func (tc *TeamCtx) stealShare(n int, body func(lo, hi, w int)) {
	if n <= 0 {
		return
	}
	a := tc.beginLoop()
	w := tc.W
	tc.drainSteal(n, func(lo, hi int) { body(lo, hi, w) })
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
// ready word; the rest wait, through the machine's lot, until the ready
// word holds their epoch. It cannot move past it first: the next loop's
// winner has passed this loop's closing barrier, which every worker
// reaches only after leaving this wait. Cursor and stealing loops share
// the one epoch sequence: every worker executes the same loop sequence,
// so the ticket words stay consistent however the two kinds interleave.
// All claims of the previous loop happened before its closing barrier,
// which every worker passed before entering this loop, so the reset can
// never race a stale claim.
func (tc *TeamCtx) resetLoop(reset func()) {
	m := tc.m
	tc.epoch++
	e := tc.epoch
	if m.teamTicket.CompareAndSwap(e-1, e) {
		reset()
		m.teamReady.Store(e)
		m.lot.Wake()
		return
	}
	if !m.lot.Await(&m.teamReady, e, &m.teamAborted) {
		panic(teamAbort{})
	}
}

// Flag is a rotating convergence flag for round loops, usable under every
// exec backend: the race-free, barrier-free way for a region to decide
// when its round loop has converged. The machine owns one, which TeamCtx
// hands to every worker of a region.
//
// A round loop needs one shared word per round — "did anything change?" —
// that is primed before the round, written during it, and read after it to
// decide termination. Inside one region the priming is the subtle part: a
// worker that primes the flag for round r while a slow peer is still
// reading it for round r-1 would corrupt the peer's break decision. Three
// rotating slots (indexed round mod 3) make the pattern safe with no extra
// barrier, provided each round ends with at least one barrier and the
// calls follow the round structure:
//
//	Set(r+1, primeValue)  at the top of round r (any or all workers);
//	Set(r,   seenValue)   during round r's work-shared loops;
//	Get(r)                after round r's closing barrier.
//
// Why three slots suffice: slot (r+1)%3 equals slot (r-2)%3, and its last
// reader — Get(r-2) — ran before that worker arrived at round r-1's
// closing barrier, which every worker passes before priming at the top of
// round r. Writes for round r+1 begin only after round r's barrier, after
// all primes. Two slots would put the prime and the previous read in the
// same unsynchronized window; three separates every conflicting pair by a
// barrier. All accesses are atomic, so concurrent primes/sets of the same
// value (the common-CW idiom) are race-detector clean. Under the serial
// trace replay the rotation is unnecessary but harmless; using one
// protocol everywhere keeps kernel bodies backend-agnostic.
type Flag struct {
	slots [3]atomic.Uint32
}

// Set stores v into round r's slot. Safe for concurrent use by all
// workers when they store the same value (the common-CW idiom).
func (f *Flag) Set(r, v uint32) { f.slots[r%3].Store(v) }

// Get loads round r's slot. Call it only after round r's closing barrier.
func (f *Flag) Get(r uint32) uint32 { return f.slots[r%3].Load() }

// clear zeroes every slot, so a region's round 0 reads "changed" without
// a prime, as from a fresh flag.
func (f *Flag) clear() {
	for i := range f.slots {
		f.slots[i].Store(0)
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
//
// Team calibrates the wait policy of the region's rounds as the region
// opens (see barrier.Lot.Calibrate). The one-loop regions of ParallelFor
// and its siblings have no rounds and keep the last calibration for their
// loop-reset waits, so that a pass of many of them does not take the
// runtime lock GOMAXPROCS needs each time: when the team oversubscribes
// the CPUs that lock is contended, and reading it cost about 6% of an
// empty one-loop region at P=4 on two CPUs.
func (m *Machine) Team(body func(tc *TeamCtx)) { m.region(body, true) }

// region opens a team region for body, first calibrating the wait policy
// if calibrate is set.
func (m *Machine) region(body func(tc *TeamCtx), calibrate bool) {
	if m.closed {
		panic("machine: use after Close")
	}
	// Fresh region: worker-local epochs restart at 0, so rewind the shared
	// loop-reset protocol words, and the region's flag starts clear. The
	// start barrier publishes this to the helpers.
	m.teamTicket.Store(0)
	m.teamReady.Store(0)
	m.flag.clear()
	m.step = stepDesc{region: body, seq: m.nextSeq(), panics: m.step.panics}
	if m.bar != nil {
		if calibrate {
			m.lot.Calibrate(m.p)
		}
		m.bar.Wait(0) // start phase: the helpers pick up the region body
	}
	m.work(m.step, 0)
	m.endPhase(m.step, 0)
	// Keep the highest round id any copy drew. The copies agree unless the
	// region aborted.
	for w := range m.tcs {
		m.round = max(m.round, m.tcs[w].round)
	}
	if m.teamAborted.Load() {
		// The round barrier was abandoned mid-phase.
		m.rounds.Reset()
		m.teamAborted.Store(false)
	}
	m.reraise()
}

// runRegion executes worker id's copy of the region body on its reset
// context, capturing panics so a failing body cannot deadlock the
// machine: a user panic is recorded and poisons the region, waking the
// peers parked in a round barrier or loop reset (peers bail at their next
// barrier with a teamAbort, which is swallowed here).
func (m *Machine) runRegion(st stepDesc, id int) {
	defer func() {
		if pv := recover(); pv != nil {
			if _, bail := pv.(teamAbort); !bail {
				st.panics[id] = pv
				m.teamAborted.Store(true)
				m.lot.Wake()
			}
		}
	}()
	tc := &m.tcs[id]
	tc.epoch, tc.loops, tc.round = 0, 0, m.round
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
