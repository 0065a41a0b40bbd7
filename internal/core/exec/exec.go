// Package exec presents one kernel-facing execution context over the
// machine, so every PRAM kernel is written exactly once.
//
// A CRCW PRAM kernel is a sequence of lock-step rounds: work-shared loops
// separated by synchronization points, with the occasional serial section
// and convergence flag in between. The machine runs that shape as one
// persistent parallel region per kernel, SPMD-style (team), and this
// package adds a second backend, trace, which replays the kernel serially
// while counting its structure. Ctx abstracts over both: a kernel body
// written against Ctx runs unmodified under each backend, dispatched by
// Run on a machine.Exec value.
//
// The body is SPMD code under both backends. Under team it literally runs
// once per worker; under trace it runs once on the caller, which behaves
// like the team's worker 0 (Worker() == 0, Single inline, Barrier counted
// where team mode places one). The discipline is therefore the team one:
// control flow feeding a Ctx primitive — loop trip counts, break
// decisions, round ids — must be computed identically by every worker,
// from worker-local deterministic state or from shared state read after a
// barrier. Per-worker scratch flows through the loop-body worker argument
// (ForWorker/Range/Bounds), never through Worker(), whose only sanctioned
// use is electing worker 0 to capture a region result.
//
// Barrier semantics per backend:
//
//   - team: For/Range/Bounds end in one real sense barrier (TeamCtx
//     semantics), Barrier() is that barrier alone, and Single elects
//     worker 0 with a closing barrier.
//   - trace: no synchronization exists (the replay is serial); barriers
//     are counted, not executed.
//
// Because the convergence-flag idiom needs one shared word visible to all
// workers, Flag() returns a region-level triple-buffered flag allocated
// once per Run — all SPMD copies of the body observe the same Flag, which
// a per-worker allocation inside the body could not provide.
package exec

import (
	"context"
	rtrace "runtime/trace"
	"sync/atomic"

	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
)

// Ctx is one worker's view of a kernel execution region. It is valid only
// inside the body passed to Run and must not leak to other goroutines.
type Ctx interface {
	// P returns the number of workers sharing each loop (logical workers
	// under trace).
	P() int
	// Worker returns this SPMD copy's worker id. Under trace the single
	// body acts as worker 0. Use it only to elect one worker for
	// result capture; per-iteration worker ids come from the loop bodies.
	Worker() int
	// For executes one work-shared PRAM round: body(i) for every i in
	// [0, n), with a (possibly implicit) barrier before For returns.
	For(n int, body func(i int))
	// ForWorker is For with the executing worker's id passed to the body.
	ForWorker(n int, body func(i, w int))
	// Range executes one round in block form: each worker receives its
	// contiguous share [lo, hi) of [0, n) once, with its id. Workers with
	// an empty share skip the body.
	Range(n int, body func(lo, hi, w int))
	// Bounds is Range over caller-supplied shard boundaries
	// (len(bounds) == P()+1, non-decreasing), the edge-balanced form.
	Bounds(bounds []int, body func(lo, hi, w int))
	// StealRange executes one round under work stealing regardless of the
	// machine's configured policy: [0, n) is cut into chunks seeded onto
	// per-worker deques (each worker's block share), and body receives each
	// claimed chunk [lo, hi) with the claiming worker's id — owners in
	// ascending index order, thieves wherever they struck. It is the form
	// for irregular loops whose per-index cost is skewed (frontier
	// relaxation, randmate hooking); regular sweeps should keep Range or
	// the edge-balanced Bounds. Under trace, the replay walks each worker's
	// seeded chunk log in worker order, so traced coverage equals the
	// block partition and stays deterministic.
	StealRange(n int, body func(lo, hi, w int))
	// Barrier closes the current PRAM round: no dependent read proceeds
	// until every write of the round is visible. Under team it is one
	// sense barrier; under trace it is counted.
	Barrier()
	// Single executes f on exactly one worker, with f's writes visible to
	// the whole team after Single returns.
	Single(f func())
	// Flag returns the region's convergence flag, shared by all workers.
	// One flag exists per Run; kernels needing more declare driver-side
	// Flag values before entering the region.
	Flag() *Flag
	// NextRound returns the next region-local round id (1, 2, 3, ...).
	// The counter is worker-local and advances identically in every SPMD
	// copy, so all workers agree on the id without synchronization.
	// Kernels add their machine-lifetime base offset themselves.
	NextRound() uint32
	// Metrics returns the machine's live-metrics recorder, or nil when
	// metrics are off (always nil under trace: the serial replay has its
	// own counters). Kernels thread it unconditionally — a nil recorder's
	// Shard is nil, and a nil shard's methods are single-branch no-ops.
	Metrics() *metrics.Recorder
}

// Flag is a rotating convergence flag for round loops, usable under every
// backend: the race-free, barrier-free way for a region to decide when its
// round loop has converged.
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
// value (the common-CW idiom) are race-detector clean. Under trace the
// rotation is unnecessary but harmless; using one protocol everywhere
// keeps kernel bodies backend-agnostic.
type Flag struct {
	slots [3]atomic.Uint32
}

// Set stores v into round r's slot. Safe for concurrent use by all
// workers when they store the same value (the common-CW idiom).
func (f *Flag) Set(r, v uint32) { f.slots[r%3].Store(v) }

// Get loads round r's slot. Call it only after round r's closing barrier.
func (f *Flag) Get(r uint32) uint32 { return f.slots[r%3].Load() }

// Run executes body under the backend selected by e: team (one
// persistent parallel region) or trace (serial counting replay). It
// returns the trace statistics for ExecTrace and nil otherwise.
func Run(m *machine.Machine, e machine.Exec, body func(Ctx)) *TraceStats {
	if m.Closed() {
		panic("exec: use after Close")
	}
	// A machine whose event-trace recorder opts into runtime/trace gets
	// the whole kernel execution wrapped in a runtime/trace task, so `go
	// tool trace` groups the workers' per-round regions under one task
	// per Run. No-op unless runtime tracing was requested (and inert
	// until runtime/trace.Start actually collects).
	if m.Events().RuntimeOn() {
		_, task := rtrace.NewTask(context.Background(), "pram/"+e.String())
		defer task.End()
	}
	// The region's one shared Flag: allocated here, before the SPMD split,
	// so every worker's Flag() call observes the same word.
	flag := new(Flag)
	switch e {
	case machine.ExecTrace:
		st := &TraceStats{P: m.P(), Iters: make([]uint64, m.P())}
		body(&traceCtx{p: m.P(), chunk: m.Chunk(), flag: flag, stats: st})
		return st
	default:
		// A machine carrying a chaos injector gets the team context
		// wrapped in the fault-delivering one; the trace backend stays
		// bare (a serial replay has no schedule to perturb).
		inj := m.Chaos()
		m.Team(func(tc *machine.TeamCtx) {
			var c Ctx = &teamCtx{tc: tc, flag: flag, rec: m.Metrics()}
			if inj != nil {
				c = &chaosCtx{inner: c, inj: inj}
			}
			body(c)
		})
		return nil
	}
}
