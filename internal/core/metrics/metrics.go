// Package metrics is the live-contention observability layer: per-worker
// sharded counters that the machine's team regions and the
// instrumented kernels feed while running at full speed, so the paper's
// central contention claims — CAS-LT executes at most P read-modify-writes
// per cell per round, late arrivals fail a plain-load pre-check — can be
// checked on real parallel hardware. The shards are the repository's one
// count of claims: the serial trace replay (internal/core/exec/trace.go)
// records its claims on them too, one shard per logical worker, which is
// where the deterministic whole-kernel operation counts come from.
//
// # Design
//
// A Recorder owns one cache-line padded Shard per worker. Every counter
// update is a plain (non-atomic) increment on the caller's own shard —
// no shared cache line is written on the hot path, so the instrumented-on
// cost is a few predictable instructions per selection attempt. The
// machine's region barriers order all shard writes before the caller's
// Snapshot read (the same happens-before edge the machine already relies
// on for panic propagation), so Snapshot is race-free with no atomics in
// the recording path. That holds for the barrier-wait time too: a worker
// credits its end-phase wait after the end barrier releases it, but the
// machine's settle step holds the caller until every worker has.
//
// When metrics are off (the default; see machine.WithMetrics) every handle
// in the chain is nil, and every method in this package is nil-receiver
// safe: Recorder.Shard(w) on a nil Recorder returns a nil *Shard, and a
// nil Shard's Claim reduces to a single predictable branch around the
// boolean the kernel needed anyway. That branch is the entire
// instrumented-off cost; BenchmarkMetricsOffOverhead in the machine
// package pins it against the uninstrumented baseline.
//
// The optional per-cell Probe is the exception to "no shared writes": it
// CASes one word per guarded cell on every executed attempt, to record the
// maximum number of read-modify-writes any cell absorbed in any single
// round — the quantity the paper bounds by P for CAS-LT. Because it is an
// observer that adds contention of its own, it is off unless a caller
// opts in with EnableProbe, and timing from probe-enabled runs should be
// discarded.
package metrics

import (
	"sync/atomic"
	"time"

	"crcwpram/internal/core/cw"
)

// Shard holds one worker's counters. Fields are written only by that
// worker between two machine barriers and read only by the coordinator
// after the closing barrier, so plain stores suffice. The struct is padded
// to two cache lines so adjacent workers' shards never share a line
// regardless of how the shard slice is aligned.
type Shard struct {
	attempts uint64 // read-modify-writes executed (wins + losses)
	wins     uint64
	losses   uint64
	skips    uint64 // pre-check skips: no atomic executed
	busyNs   int64  // time spent inside loop bodies
	// barrierNs is the time spent waiting at barriers, credited once per
	// barrier. The end-phase wait is credited as the worker leaves the end
	// barrier; the machine's settle step orders that credit before the
	// caller returns from the region.
	barrierNs int64
	// Work-stealing scheduler counters (the sched.Stealing policy): chunks
	// popped from the worker's own deque, chunks stolen from victims, and
	// steal CAS attempts lost to a racing claimant. Credited once per
	// stealing loop from the worker's own StealCounts — plain fields,
	// ordered by the loop's closing barrier like the claim counters.
	chunksLocal uint64
	steals      uint64
	stealFails  uint64
	probe       *Probe   // nil unless Recorder.EnableProbe
	checker     *Checker // nil unless Recorder.EnableChecker
	hook        ClaimHook
	w           int // this shard's worker index, for checker/hook attribution
	_           [128 - 14*8]byte
}

// Claim records the outcome of one winner-selection attempt on cell i in
// the given round and reports whether the caller won — so kernels can wrap
// their existing claim sites in place:
//
//	if sh.Claim(v, round, cells.TryClaimOutcome(v, round)) { ... }
//
// On a nil shard (metrics off) it reduces to o.Won(). The method stays
// under the inliner's budget — the recording body lives in record — so the
// nil branch compiles into the call site rather than costing a call per
// selection attempt.
func (s *Shard) Claim(i int, round uint32, o cw.Outcome) bool {
	if s == nil {
		return o == cw.OutcomeWin
	}
	return s.record(i, round, o)
}

// record is Claim's metrics-on body, outlined to keep Claim inlinable.
func (s *Shard) record(i int, round uint32, o cw.Outcome) bool {
	switch o {
	case cw.OutcomeWin:
		s.attempts++
		s.wins++
	case cw.OutcomeLoss:
		s.attempts++
		s.losses++
	default:
		s.skips++
		return false
	}
	if p := s.probe; p != nil {
		p.touch(i, round)
	}
	if c := s.checker; c != nil {
		c.observe(s.w, i, round, o)
	}
	if h := s.hook; h != nil {
		h.OnClaim(s.w, i, round, o)
	}
	return o == cw.OutcomeWin
}

// AddSteal credits one stealing loop's chunk-dispatch outcome to this
// worker: local own-deque pops, successful steals, and failed steal CAS
// attempts. Called once per stealing loop, not per chunk. Nil-safe.
func (s *Shard) AddSteal(local, steals, fails uint64) {
	if s != nil {
		s.chunksLocal += local
		s.steals += steals
		s.stealFails += fails
	}
}

// AddBusy credits d of loop-body execution time to this worker. Nil-safe.
func (s *Shard) AddBusy(d time.Duration) {
	if s != nil {
		s.busyNs += int64(d)
	}
}

// AddBarrierWait credits d of barrier waiting time to this worker.
// Nil-safe.
func (s *Shard) AddBarrierWait(d time.Duration) {
	if s != nil {
		s.barrierNs += int64(d)
	}
}

// BarrierWaitTotal returns the barrier wait credited to this worker so
// far. The machine uses before/after readings to subtract in-region team
// barrier waits from a region's wall time when crediting busy time.
// Nil-safe; call from the owning worker or at a synchronization point.
func (s *Shard) BarrierWaitTotal() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.barrierNs)
}

// Recorder aggregates the shards of one machine's workers plus the
// coordinator-side counters (round wall time, round count). The
// coordinator fields are written by exactly one goroutine per region —
// worker 0 of the team backend — with the machine's barriers ordering
// them against Snapshot.
type Recorder struct {
	shards  []Shard
	probe   *Probe
	checker *Checker
	roundNs int64 // wall time of the parallel rounds, as seen by the coordinator
	// roundDur keeps the individual per-round wall times behind the
	// roundNs aggregate, in coordinator call order — the round-resolved
	// view the timeline summaries and -metricsjson expose.
	roundDur []int64
	rounds   uint64 // NextRound advances (rounds-to-convergence for looping kernels)
}

// NewRecorder returns a recorder with one shard per worker.
func NewRecorder(p int) *Recorder {
	r := &Recorder{shards: make([]Shard, p)}
	for w := range r.shards {
		r.shards[w].w = w
	}
	return r
}

// P returns the number of shards (workers). Zero on a nil recorder.
func (r *Recorder) P() int {
	if r == nil {
		return 0
	}
	return len(r.shards)
}

// Shard returns worker w's shard, or nil on a nil recorder — the nil
// propagates into Shard's nil-safe methods, making the metrics-off path a
// branch per call site rather than a flag check per counter.
func (r *Recorder) Shard(w int) *Shard {
	if r == nil {
		return nil
	}
	return &r.shards[w]
}

// AddRoundTime credits d of parallel-round wall time, both to the
// aggregate and to the per-round slice Snapshot.RoundWallNs exposes.
// Coordinator only; nil-safe.
func (r *Recorder) AddRoundTime(d time.Duration) {
	if r != nil {
		r.roundNs += int64(d)
		r.roundDur = append(r.roundDur, int64(d))
	}
}

// AddRounds credits n lock-step round advances. Coordinator only;
// nil-safe.
func (r *Recorder) AddRounds(n uint64) {
	if r != nil {
		r.rounds += n
	}
}

// EnableProbe attaches a fresh n-cell probe, resetting any previous one.
// Claims with cell index ≥ n are recorded in the counters but not probed.
// The probe adds one CAS per executed attempt; do not time probed runs.
func (r *Recorder) EnableProbe(n int) {
	if r == nil {
		return
	}
	r.probe = newProbe(n)
	for w := range r.shards {
		r.shards[w].probe = r.probe
	}
}

// DisableProbe detaches the probe.
func (r *Recorder) DisableProbe() {
	if r == nil {
		return
	}
	r.probe = nil
	for w := range r.shards {
		r.shards[w].probe = nil
	}
}

// EnableChecker attaches a fresh n-cell invariant checker allowing
// winnersPerCell commits per (cell, round) and — when attemptBound > 0 —
// at most attemptBound executed attempts per (cell, round), replacing any
// previous checker. Claims with cell index ≥ n are counted but not
// checked. Like the probe, the checker adds CAS traffic per executed
// attempt; do not time checked runs. Nil-safe (returns nil).
func (r *Recorder) EnableChecker(n int, winnersPerCell, attemptBound uint64) *Checker {
	if r == nil {
		return nil
	}
	r.checker = newChecker(n, winnersPerCell, attemptBound)
	for w := range r.shards {
		r.shards[w].checker = r.checker
	}
	return r.checker
}

// DisableChecker detaches the checker.
func (r *Recorder) DisableChecker() {
	if r == nil {
		return
	}
	r.checker = nil
	for w := range r.shards {
		r.shards[w].checker = nil
	}
}

// Checker returns the attached invariant checker, or nil when none is
// enabled.
func (r *Recorder) Checker() *Checker {
	if r == nil {
		return nil
	}
	return r.checker
}

// ClaimHooks fans one claim notification out to several hooks in
// order. The machine composes it when more than one observer wants the
// claim stream (the chaos injector and the event-trace recorder); with
// a single observer it attaches the hook directly, so the fan-out loop
// costs nothing in the common case.
type ClaimHooks []ClaimHook

// OnClaim implements ClaimHook by forwarding to every hook in order.
func (hs ClaimHooks) OnClaim(w, cell int, round uint32, o cw.Outcome) {
	for _, h := range hs {
		h.OnClaim(w, cell, round, o)
	}
}

// SetClaimHook attaches h (nil to detach) to every shard: the hook runs
// on the claiming worker after each executed attempt is counted. The
// machine wires its chaos injector and event-trace recorder here
// (machine.WithChaos, machine.WithEventTrace), composing them with
// ClaimHooks when both are present.
func (r *Recorder) SetClaimHook(h ClaimHook) {
	if r == nil {
		return
	}
	for w := range r.shards {
		r.shards[w].hook = h
	}
}

// Reset zeroes all counters (keeping an enabled probe enabled, with its
// cells cleared). It must not race with recording — call it between runs,
// outside any parallel region.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for w := range r.shards {
		sh := &r.shards[w]
		sh.attempts, sh.wins, sh.losses, sh.skips = 0, 0, 0, 0
		sh.chunksLocal, sh.steals, sh.stealFails = 0, 0, 0
		sh.busyNs, sh.barrierNs = 0, 0
	}
	r.roundNs, r.rounds = 0, 0
	r.roundDur = r.roundDur[:0]
	if r.probe != nil {
		r.probe.reset()
	}
	if r.checker != nil {
		r.checker.reset()
	}
}

// Snapshot is the aggregated view of a recorder at a synchronization
// point. Totals sum over workers; the per-worker slices expose the busy /
// barrier-wait split that the totals hide (load imbalance shows up as
// variance across WorkerBusyNs and its mirror image in WorkerBarrierNs).
type Snapshot struct {
	P int
	// CASAttempts counts executed read-modify-writes (CAS or
	// fetch-and-add), i.e. wins + losses; pre-check skips are not attempts.
	CASAttempts uint64
	CASWins     uint64
	CASLosses   uint64
	// PrecheckSkips counts selection calls resolved by the plain-load
	// pre-check without touching an atomic.
	PrecheckSkips uint64
	BusyNs        int64
	BarrierWaitNs int64
	RoundNs       int64
	// RoundWallNs lists each parallel round's wall time in coordinator
	// call order; its entries sum to RoundNs. Empty when no rounds were
	// timed.
	RoundWallNs []int64
	Rounds      uint64
	// MaxCellClaims is the maximum number of executed attempts observed on
	// any single cell within any single round — the paper's ≤ P quantity.
	// Zero unless a probe was enabled.
	MaxCellClaims uint64
	// Work-stealing chunk dispatch totals (zero unless some loop ran under
	// sched.Stealing): own-deque pops, successful steals, and steal CAS
	// attempts lost to a racing claimant.
	ChunksLocal    uint64
	Steals         uint64
	StealFails     uint64
	WorkerBusyNs   []int64
	WorkerBarrier  []int64
	WorkerAttempts []uint64
}

// Snapshot aggregates the shards. Call only at a synchronization point
// (no region in flight). A nil recorder yields a zero Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		P:              len(r.shards),
		RoundNs:        r.roundNs,
		RoundWallNs:    append([]int64(nil), r.roundDur...),
		Rounds:         r.rounds,
		WorkerBusyNs:   make([]int64, len(r.shards)),
		WorkerBarrier:  make([]int64, len(r.shards)),
		WorkerAttempts: make([]uint64, len(r.shards)),
	}
	for w := range r.shards {
		sh := &r.shards[w]
		s.CASAttempts += sh.attempts
		s.CASWins += sh.wins
		s.CASLosses += sh.losses
		s.PrecheckSkips += sh.skips
		s.ChunksLocal += sh.chunksLocal
		s.Steals += sh.steals
		s.StealFails += sh.stealFails
		s.BusyNs += sh.busyNs
		s.BarrierWaitNs += sh.barrierNs
		s.WorkerBusyNs[w] = sh.busyNs
		s.WorkerBarrier[w] = sh.barrierNs
		s.WorkerAttempts[w] = sh.attempts
	}
	if r.probe != nil {
		s.MaxCellClaims = r.probe.Max()
	}
	return s
}

// Probe tracks, per guarded cell, how many read-modify-writes landed on it
// in the current round, and the running maximum over all cells and rounds.
// Each cell's word packs round<<32 | count; a touch from a later round
// restarts the count, so no per-round reset pass is needed — the same
// trick as CAS-LT's own round stamping.
type Probe struct {
	max   atomic.Uint64
	cells []atomic.Uint64
}

func newProbe(n int) *Probe {
	return &Probe{cells: make([]atomic.Uint64, n)}
}

func (p *Probe) touch(i int, round uint32) {
	if i < 0 || i >= len(p.cells) {
		return
	}
	c := &p.cells[i]
	var cnt uint64
	for {
		old := c.Load()
		cnt = 1
		if uint32(old>>32) == round {
			cnt = old&0xffffffff + 1
		}
		if c.CompareAndSwap(old, uint64(round)<<32|cnt) {
			break
		}
	}
	for {
		m := p.max.Load()
		if cnt <= m || p.max.CompareAndSwap(m, cnt) {
			return
		}
	}
}

// Max returns the maximum executed-attempt count observed on any single
// cell within any single round. Read at a synchronization point.
func (p *Probe) Max() uint64 { return p.max.Load() }

func (p *Probe) reset() {
	p.max.Store(0)
	for i := range p.cells {
		p.cells[i].Store(0)
	}
}
