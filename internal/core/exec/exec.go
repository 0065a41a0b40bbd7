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
//   - team: the Ctx is the worker's machine.TeamCtx itself, so every
//     work-shared loop ends in one real team barrier, Barrier() is that
//     barrier alone, and Single elects worker 0 with a closing barrier.
//   - trace: no synchronization exists (the replay is serial); barriers
//     are counted, not executed.
//
// Because the convergence-flag idiom needs one shared word visible to all
// workers, Flag() returns a region-level triple-buffered flag: the
// machine's own under team, cleared as each region opens, and a fresh one
// per Run under trace. All SPMD copies of the body observe the same Flag,
// which a per-worker allocation inside the body could not provide.
package exec

import (
	"context"
	rtrace "runtime/trace"

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
	// NextRound returns the next CAS-LT round id from the machine's round
	// counter, which the run continues, so ids are unique for the
	// machine's lifetime under both backends and are rewound only as a run
	// opens. Each SPMD copy advances its own copy of the counter
	// identically, so all workers agree on the id without synchronization.
	NextRound() uint32
	// Metrics returns the machine's live-metrics recorder, or nil when
	// metrics are off. Under trace the replay records claims and rounds on
	// it, but no time. Kernels thread it unconditionally — a nil
	// recorder's Shard is nil, and a nil shard's methods are single-branch
	// no-ops.
	Metrics() *metrics.Recorder
}

// Flag is the rotating convergence flag of round loops (see
// machine.Flag for its three-slot protocol).
type Flag = machine.Flag

// The team backend's context is the machine's own per-worker TeamCtx.
var _ Ctx = (*machine.TeamCtx)(nil)

// Run executes body under the backend selected by e: team (one
// persistent parallel region) or trace (serial counting replay). It
// returns the trace statistics for ExecTrace and nil otherwise. Either way
// the run continues the machine's round ids, rewound first if due
// (Machine.OpenRounds).
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
	start := m.OpenRounds()
	switch e {
	case machine.ExecTrace:
		// The replay ignores a machine's chaos injector: a serial replay has
		// no schedule to perturb. It hands its last round id back to the
		// machine even if body panics.
		c := &traceCtx{p: m.P(), chunk: m.Chunk(), flag: new(Flag), rec: m.Metrics(), round: start,
			stats: &TraceStats{P: m.P(), Iters: make([]uint64, m.P())}}
		defer func() { m.CloseRounds(c.round) }()
		body(c)
		return c.stats
	default:
		m.Team(func(tc *machine.TeamCtx) { body(tc) })
		return nil
	}
}
