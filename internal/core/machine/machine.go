// Package machine executes PRAM algorithm steps on a fixed pool of physical
// workers.
//
// A PRAM algorithm is a sequence of rounds, each applying one operation per
// virtual processor to a shared memory, in lock-step. Following the paper
// (Section 4, building on Ghanim et al.'s ICE results), lock-step semantics
// are recovered on an asynchronous shared-memory machine by (1) work-sharing
// each round's virtual processors over the physical workers and (2) placing
// a synchronization barrier between a round and anything that depends on it.
// Machine provides exactly that, and an internal monotone round counter
// supplies the round ids consumed by the cw package's CAS-LT cells.
//
// The workers are persistent: they are started once and parked on a
// reusable barrier between regions, mirroring an OpenMP parallel region with
// an active wait policy (the configuration the paper measures). As in
// OpenMP, the goroutine that opens a region is worker 0 of its team: New
// starts P-1 helper goroutines (workers 1..P-1), and the caller runs worker
// 0's share of every region between the region barrier's start and end
// phases. Every piece of parallel work runs as a team region (team.go): Team
// runs a whole kernel inside one region — the exact shape of the paper's
// OpenMP listings, at one team barrier per round — and ParallelFor/
// ParallelRange/ParallelBounds/ParallelSteal are one-loop regions whose
// closing barrier is the region's end phase. A one-worker machine starts no
// goroutine at all: the caller is the whole team.
package machine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"crcwpram/internal/barrier"
	"crcwpram/internal/core/chaos"
	"crcwpram/internal/core/metrics"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/sched"
)

// Machine is a fixed team of P workers executing PRAM rounds: the caller
// is worker 0 and P-1 helper goroutines are the rest. Create with New,
// release with Close. A Machine is driven by one caller goroutine at a
// time; the rounds themselves run on all P workers.
type Machine struct {
	p       int
	policy  sched.Policy
	chunk   int
	barKind barrier.Kind
	// bar is the P-party barrier whose start and end phases bracket every
	// region: the caller arrives as party 0 and helper w as party w. nil
	// on a one-worker machine.
	bar barrier.Barrier

	// step is the descriptor of the region in flight. It is written by the
	// caller before the start barrier and read by the helpers after it;
	// the barrier provides the happens-before edge.
	step stepDesc

	// Team-region state (team.go): one padded context per worker, the
	// worker-only barrier, the one pre-allocated cursor shared by all
	// dynamic/guided team loops, the ticket/ready words of its per-loop
	// reset protocol, and the abort flag a panicking team body raises.
	tcs         []TeamCtx
	teamBar     *teamBarrier
	teamCur     *sched.Cursor
	teamTicket  atomic.Uint64
	teamReady   atomic.Uint64
	teamAborted atomic.Bool

	// steal is the one pre-allocated work-stealing deque set shared by all
	// stealing loops (the sched.Stealing policy, ParallelSteal and
	// TeamCtx.Steal). Like teamCur it is reset per loop through the team
	// ticket protocol, never per machine.
	steal *sched.Stealer

	// rec is the live-metrics recorder, nil unless WithMetrics was given.
	// Every instrumented path in the machine hangs off a single
	// `m.rec != nil` branch, so the metrics-off hot path is unchanged.
	rec *metrics.Recorder

	// chaos is the schedule-perturbation injector, nil unless WithChaos
	// was given. The exec backends wrap their contexts around it and the
	// recorder drives it from the claim sites (it implies metrics).
	chaos *chaos.Injector

	// evt is the event-trace flight recorder, nil unless WithEventTrace
	// was given. Like chaos it implies metrics: its span emission lives
	// inside the instrumented region path behind the one `m.rec != nil`
	// branch, so the tracing-off hot path is the metrics-off hot path.
	evt *evtrace.Recorder
	// stepSeq numbers the machine's regions for span round ids; advanced
	// only when evt is attached.
	stepSeq uint32

	// settled counts the helpers that have recorded a metrics region's
	// end-phase wait (see settle).
	settled atomic.Int32

	exec   Exec
	round  uint32
	closed bool
	// exited counts the helper goroutines still running; Close waits on it.
	exited sync.WaitGroup
}

type stepDesc struct {
	region func(tc *TeamCtx)
	seq    uint32 // region sequence number for event-trace span round ids
	quit   bool
	panics []any // one slot per worker, pre-sized; nil = no panic
}

// Option configures a Machine.
type Option func(*Machine)

// WithPolicy selects the loop partitioning policy (default sched.Block).
func WithPolicy(p sched.Policy) Option { return func(m *Machine) { m.policy = p } }

// WithChunk sets the chunk size for dynamic/guided policies (default
// sched.DefaultChunk).
func WithChunk(c int) Option { return func(m *Machine) { m.chunk = c } }

// WithBarrier selects the barrier construction (default barrier.KindSense).
func WithBarrier(k barrier.Kind) Option { return func(m *Machine) { m.barKind = k } }

// WithExec selects the machine's default execution backend (default
// ExecTeam). Kernels dispatched without an explicit backend — the plain
// Run entry points — use this choice via Exec().
func WithExec(e Exec) Option { return func(m *Machine) { m.exec = e } }

// WithMetrics enables live contention metrics: the machine allocates a
// per-worker-sharded metrics.Recorder that the machine's regions and the
// instrumented kernels feed while running. Off by default; when off,
// Metrics() returns nil and the hot paths keep their uninstrumented cost
// (BenchmarkMetricsOffOverhead pins this). Probed runs and timed runs
// should be separate: see metrics.Recorder.EnableProbe.
func WithMetrics() Option { return func(m *Machine) { m.rec = metrics.NewRecorder(m.p) } }

// WithEventTrace attaches an event-trace flight recorder (see the
// evtrace package at internal/core/trace): the machine's regions emit
// per-worker round, region, barrier-wait, and steal events into its
// ring buffers, and every recorded claim feeds its sampled claim stream
// through the metrics claim hook. Event tracing implies metrics — a
// machine built with WithEventTrace allocates a recorder even without
// WithMetrics — so the tracing-off hot path keeps the metrics
// discipline's single branch (BenchmarkEventTraceOffOverhead pins it).
// The recorder's worker count must match the machine's. Tracing only
// observes; kernel.DifferentialEventTrace proves traced runs stay
// byte-identical to untraced ones.
func WithEventTrace(r *evtrace.Recorder) Option { return func(m *Machine) { m.evt = r } }

// WithChaos attaches a deterministic schedule-perturbation injector: the
// team execution backend delivers its faults at its instrumented yield
// points (loop iterations, barrier arrivals, steal chunk deliveries), and
// every recorded claim site drives its loss perturbations through the
// metrics claim hook. Chaos implies metrics — a machine built with
// WithChaos allocates a recorder even without WithMetrics — because the
// claim sites are the metrics layer's. Faults only burn time and yield,
// so a perturbed run of a deterministic kernel must produce
// byte-identical results; kernel.DifferentialChaos enforces that across
// the whole registry. Never time a chaos run.
func WithChaos(inj *chaos.Injector) Option { return func(m *Machine) { m.chaos = inj } }

// New returns a Machine with p workers: the calling goroutine, which runs
// worker 0's share of every region, and p-1 helper goroutines. p must be
// >= 1. The caller owns the machine and must Close it to release the
// helpers. A one-worker machine runs everything on the caller and starts
// no goroutine.
func New(p int, opts ...Option) *Machine {
	if p < 1 {
		panic("machine: p must be >= 1")
	}
	m := &Machine{
		p:       p,
		policy:  sched.Block,
		chunk:   sched.DefaultChunk,
		barKind: barrier.KindSense,
	}
	for _, o := range opts {
		o(m)
	}
	if m.evt != nil && m.evt.P() != p {
		panic(fmt.Sprintf("machine: event-trace recorder has %d workers, machine has %d", m.evt.P(), p))
	}
	if m.chaos != nil || m.evt != nil {
		// Chaos and event tracing imply metrics: the claim sites that feed
		// the injector's loss faults, the invariant checker, and the trace
		// recorder's sampled claim stream all live on the recorder.
		if m.rec == nil {
			m.rec = metrics.NewRecorder(p)
		}
		var hooks metrics.ClaimHooks
		if m.chaos != nil {
			hooks = append(hooks, m.chaos)
		}
		if m.evt != nil {
			hooks = append(hooks, m.evt)
			// Fired chaos faults render as timeline spans.
			m.chaos.SetSink(m.evt)
		}
		if len(hooks) == 1 {
			m.rec.SetClaimHook(hooks[0])
		} else {
			m.rec.SetClaimHook(hooks)
		}
	}
	m.tcs = make([]TeamCtx, p)
	for w := range m.tcs {
		m.tcs[w] = TeamCtx{m: m, W: w}
	}
	m.teamBar = newTeamBarrier(p)
	m.teamCur = sched.NewCursor(m.policy, 0, p, m.chunk)
	m.steal = sched.NewStealer(p)
	m.step.panics = make([]any, p)
	if p > 1 {
		m.bar = barrier.New(m.barKind, p)
		m.exited.Add(p - 1)
		for w := 1; w < p; w++ {
			go m.helper(w)
		}
	}
	return m
}

// P returns the number of physical workers.
func (m *Machine) P() int { return m.p }

// Policy returns the partitioning policy.
func (m *Machine) Policy() sched.Policy { return m.policy }

// Chunk returns the configured chunk size (WithChunk, default
// sched.DefaultChunk). The trace backend needs it to replay the stealing
// policy's chunk geometry deterministically.
func (m *Machine) Chunk() int { return m.chunk }

// Exec returns the default execution backend chosen with WithExec.
func (m *Machine) Exec() Exec { return m.exec }

// Closed reports whether Close has been called. Layers that can run a
// kernel without entering a region (the trace backend) check it to keep
// the use-after-Close contract uniform.
func (m *Machine) Closed() bool { return m.closed }

// Metrics returns the machine's live-metrics recorder, or nil when the
// machine was created without WithMetrics. The nil propagates through the
// recorder's nil-safe methods, so callers thread it unconditionally.
func (m *Machine) Metrics() *metrics.Recorder { return m.rec }

// Chaos returns the machine's schedule-perturbation injector, or nil when
// the machine was created without WithChaos. The exec backends consult it
// when building their contexts.
func (m *Machine) Chaos() *chaos.Injector { return m.chaos }

// Events returns the machine's event-trace flight recorder, or nil when
// the machine was created without WithEventTrace. The nil propagates
// through the recorder's nil-safe methods, so callers thread it
// unconditionally.
func (m *Machine) Events() *evtrace.Recorder { return m.evt }

// nextSeq advances the machine's region sequence for event-trace span
// round ids. It stays zero with tracing off: the ids only label spans.
func (m *Machine) nextSeq() uint32 {
	if m.evt == nil {
		return 0
	}
	m.stepSeq++
	return m.stepSeq
}

// Snapshot aggregates the metrics recorder at a synchronization point (no
// round or region in flight). It returns a zero Snapshot when metrics are
// off.
func (m *Machine) Snapshot() metrics.Snapshot { return m.rec.Snapshot() }

// Round returns the current round id. Round ids start at 0 and advance by
// NextRound (or by kernels using their own loop counters).
func (m *Machine) Round() uint32 { return m.round }

// NextRound advances the machine's round counter and returns the new id,
// which is always >= 1 and therefore valid for cw.Cell claims.
func (m *Machine) NextRound() uint32 {
	m.round++
	return m.round
}

// ResetRound rewinds the round counter to 0, for reusing a machine across
// independent kernel executions whose cw arrays have been Reset.
func (m *Machine) ResetRound() { m.round = 0 }

// Close shuts the helpers down and returns once every helper goroutine
// has exited. The machine must not be used after Close; a second Close is
// a no-op.
func (m *Machine) Close() {
	if m.closed {
		return
	}
	m.closed = true
	if m.bar != nil {
		m.step = stepDesc{quit: true}
		m.bar.Wait(0) // start phase: release the helpers into the quit branch
		m.exited.Wait()
	}
}

// ParallelFor executes one PRAM round: body(i) for every i in [0, n),
// work-shared over the P workers, with an implicit barrier before
// ParallelFor returns. The barrier is the synchronization point the paper
// requires between a concurrent write and its dependent reads.
//
// The round is a one-loop team region: each worker runs its share, worker
// 0 on the caller, and the region's end phase is the closing barrier, so a
// call costs the region's two P-party phases. body must be safe for
// concurrent invocation on distinct i.
func (m *Machine) ParallelFor(n int, body func(i int)) {
	if n > 0 {
		m.Team(func(tc *TeamCtx) { tc.forShare(n, body) })
	}
}

// ParallelForWorker is ParallelFor with the executing worker's id (in
// [0, P())) passed to the body, for per-worker accumulators.
func (m *Machine) ParallelForWorker(n int, body func(i, w int)) {
	if n > 0 {
		m.Team(func(tc *TeamCtx) { tc.forShare(n, func(i int) { body(i, tc.W) }) })
	}
}

// ParallelSteal executes one PRAM round under work stealing regardless of
// the machine's configured policy: the index space [0, n) is cut into
// chunks seeded onto per-worker deques (each worker's block share), and
// body receives claimed chunks [lo, hi) with the claiming worker's id —
// owners in ascending index order, thieves wherever they struck. It is the
// entry point for irregular loops (skewed per-index cost) whose kernels
// opt into stealing explicitly; regular loops should keep ParallelRange /
// ParallelBounds. Implicit barrier on return, like every Parallel* round.
func (m *Machine) ParallelSteal(n int, body func(lo, hi, w int)) {
	if n > 0 {
		m.Team(func(tc *TeamCtx) { tc.stealShare(n, func(lo, hi int) { body(lo, hi, tc.W) }) })
	}
}

// ParallelRange executes one PRAM round in block form: each worker receives
// its contiguous share [lo, hi) once. It is the natural shape for
// re-initialization passes (e.g. the gatekeeper method's per-round reset)
// and for per-worker reductions. The partitioning policy is always Block.
func (m *Machine) ParallelRange(n int, body func(lo, hi, w int)) {
	if n > 0 {
		m.Team(func(tc *TeamCtx) { tc.rangeShare(n, func(lo, hi int) { body(lo, hi, tc.W) }) })
	}
}

// ParallelBounds executes one PRAM round in block form over caller-supplied
// shard boundaries: worker w receives the contiguous range
// [bounds[w], bounds[w+1]) once. It is ParallelRange with the boundary
// placement chosen by the caller — typically the equal-arc vertex shards of
// graph.ArcBounds — so loops whose per-index cost is skewed can balance by
// work instead of count. len(bounds) must be P()+1 and bounds must be
// non-decreasing; workers with an empty shard skip the body.
func (m *Machine) ParallelBounds(bounds []int, body func(lo, hi, w int)) {
	if len(bounds) != m.p+1 {
		panic(fmt.Sprintf("machine: ParallelBounds: %d bounds for %d workers", len(bounds), m.p))
	}
	if bounds[m.p] > bounds[0] {
		m.Team(func(tc *TeamCtx) { tc.boundsShare(bounds, func(lo, hi int) { body(lo, hi, tc.W) }) })
	}
}

// ParallelFor2D executes body(i, j) for every pair in [0, n1) x [0, n2),
// collapsing the two loops into one index space exactly like the paper's
// `#pragma omp for collapse(2)` in the maximum kernel (Figure 4).
func (m *Machine) ParallelFor2D(n1, n2 int, body func(i, j int)) {
	if n1 <= 0 || n2 <= 0 {
		return
	}
	total := n1 * n2
	if total/n1 != n2 {
		panic(fmt.Sprintf("machine: ParallelFor2D overflow: %d x %d", n1, n2))
	}
	m.ParallelFor(total, func(k int) {
		body(k/n2, k%n2)
	})
}

// reraise re-raises the first recorded worker panic on the caller,
// clearing every slot so a multi-worker panic cannot leak into the next
// region.
func (m *Machine) reraise() {
	var first any
	for w := 0; w < m.p; w++ {
		if pv := m.step.panics[w]; pv != nil {
			m.step.panics[w] = nil
			if first == nil {
				first = pv
			}
		}
	}
	if first != nil {
		panic(first)
	}
}

// helper is the dispatch loop of worker id (1 <= id < P): it picks up
// each region at the start phase, runs its copy, and joins the team at the
// end phase, until Close publishes a quit step. The start-phase wait is
// deliberately not counted: it measures the caller's serial sections, not
// the region.
func (m *Machine) helper(id int) {
	defer m.exited.Done()
	for {
		m.bar.Wait(id) // start phase
		st := m.step
		if st.quit {
			return
		}
		if m.rec == nil {
			m.work(st, id)
			m.endPhase(st, id)
			continue
		}
		// With metrics on, a helper's copy runs under a pprof "round-phase:
		// work" label and its end-phase wait under "round-phase:
		// barrier-wait". Worker 0 takes neither: pprof.Do restores the
		// labels of the context it is given, so it would strip the
		// caller's own labels after its first region.
		pprof.Do(context.Background(), pprof.Labels("round-phase", "work"), func(context.Context) {
			m.work(st, id)
		})
		pprof.Do(context.Background(), pprof.Labels("round-phase", "barrier-wait"), func(context.Context) {
			m.endPhase(st, id)
		})
	}
}

// work runs worker id's copy of the region. The per-machine metrics
// enable is its one branch: with metrics on, the copy runs inside a
// per-worker region span, with its wall time — minus the in-region barrier
// waits that TeamCtx.Barrier credits separately — credited to the worker's
// shard as busy time. With tracing off the spans are nil-buffer no-ops.
func (m *Machine) work(st stepDesc, id int) {
	if m.rec == nil {
		m.runRegion(st, id)
		return
	}
	sh := m.rec.Shard(id)
	a := m.evt.Worker(id).Begin(evtrace.KindRegion, st.seq)
	b0 := sh.BarrierWaitTotal()
	t0 := time.Now()
	m.runRegion(st, id)
	sh.AddBusy(time.Since(t0) - (sh.BarrierWaitTotal() - b0))
	a.End()
}

// endPhase is worker id's wait at the region's end phase, which joins the
// team. A one-worker machine has no region barrier, so its caller does not
// wait. With metrics on the wait is credited as barrier wait and becomes a
// barrier span.
func (m *Machine) endPhase(st stepDesc, id int) {
	if m.bar == nil {
		return
	}
	if m.rec == nil {
		m.bar.Wait(id)
		return
	}
	a := m.evt.Worker(id).Begin(evtrace.KindBarrier, st.seq)
	t0 := time.Now()
	m.bar.Wait(id)
	m.rec.Shard(id).AddBarrierWait(time.Since(t0))
	a.End()
	m.settle(id)
}

// settle closes a metrics region's end phase. Every worker records its
// end-phase wait only after the barrier has released it, so each helper
// checks in once its record is written and worker 0 returns only when all
// have: a Snapshot or Drain right after the region then sees every
// record, and no helper writes its trace ring while the caller reads it.
func (m *Machine) settle(id int) {
	if id != 0 {
		m.settled.Add(1)
		return
	}
	for spins := 0; m.settled.Load() < int32(m.p-1); spins++ {
		if spins > teamSpins {
			runtime.Gosched()
		}
	}
	m.settled.Store(0)
}
