// Package evtrace is the round-level timeline observability layer: a
// low-overhead per-worker flight recorder of timestamped span events that
// the machine's execution backends feed while running at full speed, so
// the paper's per-round cost model — each bulk-synchronous round's wall
// time is set by its slowest worker and the contention it absorbed — can
// be inspected round by round instead of as whole-run aggregates.
//
// (The package lives at internal/core/trace but is named evtrace so it
// cannot clash with the exec trace backend, which replays kernels
// serially; the two observe different things — structure there, time
// here.)
//
// # Design
//
// A Recorder owns one cache-line padded ring buffer (Buf) per worker.
// Emitting an event is a plain store into the owner's own ring plus one
// uncontended atomic add on the owner's own padded line — no shared cache
// line is written on the hot path. Rings are fixed-capacity and wrap,
// overwriting the oldest events: the recorder is a flight recorder, and
// under overflow it keeps the tail of the run (Drain reports how many
// events were dropped). The machine's step barriers order ring writes
// before the coordinator's Drain, exactly like the metrics shards.
//
// When tracing is off (the default; see machine.WithEventTrace) every
// handle in the chain is nil and every method is nil-receiver safe:
// Recorder.Worker(w) on a nil Recorder returns a nil *Buf, whose Begin /
// Point reduce to a single predictable branch. Tracing rides the
// metrics-enable branch in the machine (event tracing implies metrics),
// so the tracing-off hot path keeps the metrics discipline's single
// `rec != nil` branch; BenchmarkEventTraceOffOverhead pins it.
//
// Span round ids follow the emitting layer: KindRegion spans and the
// barrier spans of a region's end phase carry the machine's region
// sequence; KindRound spans, in-region KindBarrier spans and KindSteal
// points carry the region-local loop index (a Parallel* call is a
// one-loop region, so its round span is loop 1); KindClaim points carry
// the cw round id of the claim, and KindFault spans carry zero (fault
// schedules are not round-aligned). The Timeline groups per-round summaries over KindRound
// spans only, so the two id spaces never mix.
//
// The live counters (wins, losses, rounds, event totals) are the one
// concession to concurrent readers: they are uncontended atomics on the
// owner's padded line, so the HTTP endpoint (live.go) can poll them while
// a run is in flight without touching the rings.
package evtrace

import (
	"context"
	rtrace "runtime/trace"
	"sync/atomic"
	"time"

	"crcwpram/internal/core/cw"
)

// Kind classifies one recorded event.
type Kind uint8

const (
	// KindRound is a worker's share of one work-shared parallel loop: the
	// span brackets the loop body execution (not the closing barrier).
	KindRound Kind = iota + 1
	// KindRegion is a worker's copy of one whole team region body
	// (machine.Team); the per-loop KindRound spans nest inside it.
	KindRegion
	// KindBarrier is a worker's wait at a closing barrier — a region's
	// end phase or an in-region team barrier.
	KindBarrier
	// KindSteal is an instant event summarizing one stealing loop's chunk
	// dispatch for the worker (Arg packs local/steals/fails; see
	// PackSteal).
	KindSteal
	// KindFault is a chaos fault injection: the span brackets the
	// injected perturbation (Arg is the fault site code; see
	// FaultSiteName).
	KindFault
	// KindClaim is a sampled winner-selection attempt (every Nth claim
	// the worker executes; Arg packs cell<<1 | won).
	KindClaim
)

// String names the kind as the Chrome-trace category spells it.
func (k Kind) String() string {
	switch k {
	case KindRound:
		return "round"
	case KindRegion:
		return "region"
	case KindBarrier:
		return "barrier"
	case KindSteal:
		return "steal"
	case KindFault:
		return "fault"
	case KindClaim:
		return "claim"
	default:
		return "unknown"
	}
}

// Event is one recorded timeline entry. Start and Dur are nanoseconds
// relative to the recorder's epoch; instant events (KindSteal, KindClaim)
// have Dur zero. Arg is kind-specific packed payload.
type Event struct {
	// Start is the event's start time in nanoseconds since the recorder's
	// epoch.
	Start int64
	// Dur is the event's duration in nanoseconds (zero for instants).
	Dur int64
	// Arg is the kind-specific payload: claim deltas for KindRound
	// (PackClaims), chunk counts for KindSteal (PackSteal), the fault
	// site code for KindFault, cell<<1|won for KindClaim.
	Arg uint64
	// Round is the emitting layer's round id (see the package comment for
	// the id spaces).
	Round uint32
	// Worker is the emitting worker's id.
	Worker int32
	// Kind classifies the event.
	Kind Kind
}

// Buf is one worker's ring buffer plus its live claim counters. Ring
// writes are owner-only plain stores ordered by the machine's barriers;
// the counters are uncontended atomics so the live endpoint can read
// them mid-run. Padded so adjacent workers' buffers never share a cache
// line.
type Buf struct {
	rec     *Recorder
	events  []Event
	n       atomic.Uint64 // total events emitted (ring holds the last cap)
	samples uint64        // claims seen, for every-Nth sampling
	wins    atomic.Uint64
	losses  atomic.Uint64
	w       int32
	_       [128 - 68]byte
}

// Active is an open span returned by Buf.Begin; close it with End. The
// zero Active (from a nil Buf) is a no-op.
type Active struct {
	buf    *Buf
	reg    *rtrace.Region
	start  int64
	w0, l0 uint64
	round  uint32
	kind   Kind
}

// DefaultCap is the default per-worker ring capacity in events.
const DefaultCap = 8192

// DefaultSampleEvery is the default claim sampling interval: every Nth
// executed claim per worker emits a KindClaim instant.
const DefaultSampleEvery = 64

// Option configures a Recorder.
type Option func(*Recorder)

// WithRuntimeTrace makes every span also open a runtime/trace region
// (named by its Kind), so `go tool trace` shows PRAM rounds and barrier
// waits aligned with the goroutine scheduler's view. Regions are begun
// and ended on the emitting worker's goroutine, as runtime/trace
// requires. Collection still needs runtime/trace.Start on the process.
func WithRuntimeTrace() Option { return func(r *Recorder) { r.rt = true } }

// WithSampleEvery sets the claim sampling interval to every nth executed
// claim per worker (default DefaultSampleEvery); n < 1 is treated as 1.
func WithSampleEvery(n int) Option {
	return func(r *Recorder) {
		if n < 1 {
			n = 1
		}
		r.every = uint64(n)
	}
}

// Recorder is the flight recorder for one machine's workers: one ring
// per worker plus the shared epoch. Create with New, attach with
// machine.WithEventTrace, drain with Drain at a synchronization point.
// All methods are nil-receiver safe.
type Recorder struct {
	bufs  []Buf
	epoch time.Time
	every uint64
	rt    bool
	// liveRounds counts KindRound span completions on worker 0 (one per
	// work-shared loop) and liveRound holds the last such round id; both
	// feed the live endpoint's round-rate and current-round vars.
	liveRounds atomic.Uint64
	liveRound  atomic.Uint32
}

// New returns a recorder for p workers with the given per-worker ring
// capacity in events (capPerWorker < 1 selects DefaultCap).
func New(p, capPerWorker int, opts ...Option) *Recorder {
	if p < 1 {
		panic("evtrace: p must be >= 1")
	}
	if capPerWorker < 1 {
		capPerWorker = DefaultCap
	}
	r := &Recorder{
		bufs:  make([]Buf, p),
		epoch: time.Now(),
		every: DefaultSampleEvery,
	}
	for w := range r.bufs {
		r.bufs[w].rec = r
		r.bufs[w].w = int32(w)
		r.bufs[w].events = make([]Event, capPerWorker)
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// P returns the number of per-worker rings. Zero on a nil recorder.
func (r *Recorder) P() int {
	if r == nil {
		return 0
	}
	return len(r.bufs)
}

// Cap returns the per-worker ring capacity in events. Zero on a nil
// recorder.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.bufs[0].events)
}

// RuntimeOn reports whether spans also open runtime/trace regions
// (WithRuntimeTrace). False on a nil recorder.
func (r *Recorder) RuntimeOn() bool { return r != nil && r.rt }

// Worker returns worker w's ring, or nil on a nil recorder — the nil
// propagates into Buf's nil-safe methods, making the tracing-off path a
// branch per call site rather than a flag check per event.
func (r *Recorder) Worker(w int) *Buf {
	if r == nil {
		return nil
	}
	return &r.bufs[w]
}

// now returns nanoseconds since the recorder's epoch (monotonic).
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Begin opens a span of the given kind and round id on this worker's
// ring. On a nil buffer it returns the zero Active, whose End is a
// no-op. Round spans snapshot the worker's claim counters so End can
// record the per-span win/loss deltas.
func (b *Buf) Begin(kind Kind, round uint32) Active {
	if b == nil {
		return Active{}
	}
	a := Active{buf: b, kind: kind, round: round, start: b.rec.now()}
	if kind == KindRound {
		a.w0, a.l0 = b.wins.Load(), b.losses.Load()
	}
	if b.rec.rt {
		a.reg = rtrace.StartRegion(context.Background(), kind.String())
	}
	return a
}

// End closes the span, pushing it onto the ring. Round spans record the
// claim win/loss deltas since Begin in Arg (PackClaims) and, on worker
// 0, advance the recorder's live round counters.
func (a Active) End() {
	b := a.buf
	if b == nil {
		return
	}
	if a.reg != nil {
		a.reg.End()
	}
	ev := Event{Start: a.start, Dur: b.rec.now() - a.start, Round: a.round, Worker: b.w, Kind: a.kind}
	if a.kind == KindRound {
		ev.Arg = PackClaims(b.wins.Load()-a.w0, b.losses.Load()-a.l0)
		if b.w == 0 {
			b.rec.liveRounds.Add(1)
			b.rec.liveRound.Store(a.round)
		}
	}
	b.push(ev)
}

// Point emits an instant event (Dur zero) of the given kind, round id,
// and packed payload. Nil-safe.
func (b *Buf) Point(kind Kind, round uint32, arg uint64) {
	if b == nil {
		return
	}
	b.push(Event{Start: b.rec.now(), Arg: arg, Round: round, Worker: b.w, Kind: kind})
}

// push appends ev to the ring, overwriting the oldest event when full.
// Owner-only: ring slots are plain stores; the emitted-total is atomic so
// the live endpoint can read event counts mid-run without touching slots.
func (b *Buf) push(ev Event) {
	n := b.n.Load()
	b.events[n%uint64(len(b.events))] = ev
	b.n.Store(n + 1)
}

// OnClaim implements metrics.ClaimHook: the metrics layer calls it on
// the claiming worker after every executed winner-selection attempt
// (wins and losses only; pre-check skips never reach the hook). Every
// claim advances the worker's live win/loss counters; every Nth claim
// (WithSampleEvery) additionally emits a KindClaim instant carrying the
// cw round id and cell<<1|won.
func (r *Recorder) OnClaim(w, cell int, round uint32, o cw.Outcome) {
	b := &r.bufs[w]
	won := uint64(0)
	if o == cw.OutcomeWin {
		b.wins.Add(1)
		won = 1
	} else {
		b.losses.Add(1)
	}
	b.samples++
	if b.samples%r.every == 0 {
		b.push(Event{Start: r.now(), Arg: uint64(uint32(cell))<<1 | won, Round: round, Worker: b.w, Kind: KindClaim})
	}
}

// OnFault implements chaos.FaultSink: the injector calls it on the
// perturbed worker after a fired fault finishes burning time, passing
// the fault site name and the measured perturbation duration. The span
// is backdated to cover the perturbation.
func (r *Recorder) OnFault(w int, site string, d time.Duration) {
	if r == nil {
		return
	}
	b := &r.bufs[w]
	end := r.now()
	b.push(Event{Start: end - int64(d), Dur: int64(d), Arg: faultCode(site), Worker: b.w, Kind: KindFault})
}

// Reset clears all rings and counters for reuse across runs. Call at a
// synchronization point (no region in flight); the epoch is kept so
// timestamps stay comparable across runs within one recorder. Nil-safe.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for w := range r.bufs {
		b := &r.bufs[w]
		b.n.Store(0)
		b.samples = 0
		b.wins.Store(0)
		b.losses.Store(0)
	}
	r.liveRounds.Store(0)
	r.liveRound.Store(0)
}

// LiveCounts is a mid-run snapshot of the recorder's atomic counters —
// the only state safe to read while a region is in flight.
type LiveCounts struct {
	// Rounds counts completed worker-0 round spans (work-shared loops).
	Rounds uint64
	// CurrentRound is the round id of the last completed worker-0 span.
	CurrentRound uint32
	// Wins and Losses total the executed claim outcomes across workers.
	Wins, Losses uint64
	// Events totals emitted events across workers; Dropped counts those
	// overwritten by ring wraparound.
	Events, Dropped uint64
}

// Live reads the recorder's atomic counters. Safe to call concurrently
// with a run in flight; zero on a nil recorder.
func (r *Recorder) Live() LiveCounts {
	if r == nil {
		return LiveCounts{}
	}
	lc := LiveCounts{
		Rounds:       r.liveRounds.Load(),
		CurrentRound: r.liveRound.Load(),
	}
	for w := range r.bufs {
		b := &r.bufs[w]
		lc.Wins += b.wins.Load()
		lc.Losses += b.losses.Load()
		n := b.n.Load()
		lc.Events += n
		if c := uint64(len(b.events)); n > c {
			lc.Dropped += n - c
		}
	}
	return lc
}

// PackClaims packs per-span win/loss deltas into a round span's Arg,
// saturating each half at 32 bits.
func PackClaims(wins, losses uint64) uint64 {
	return satTo(wins, 32)<<32 | satTo(losses, 32)
}

// UnpackClaims splits a round span's Arg back into win/loss deltas.
func UnpackClaims(arg uint64) (wins, losses uint64) {
	return arg >> 32, arg & 0xffffffff
}

// PackSteal packs one stealing loop's chunk counts — own-deque pops,
// successful steals, failed steal attempts — into a KindSteal Arg
// (24/20/20 bits, saturating).
func PackSteal(local, steals, fails uint64) uint64 {
	return satTo(local, 24)<<40 | satTo(steals, 20)<<20 | satTo(fails, 20)
}

// UnpackSteal splits a KindSteal Arg back into its chunk counts.
func UnpackSteal(arg uint64) (local, steals, fails uint64) {
	return arg >> 40, arg >> 20 & 0xfffff, arg & 0xfffff
}

func satTo(v uint64, bits uint) uint64 {
	if max := uint64(1)<<bits - 1; v > max {
		return max
	}
	return v
}

// Fault site names, as the chaos injector spells them when reporting to
// its FaultSink. The Chrome exporter names fault spans "fault:<site>".
const (
	// FaultSiteStallPre is a stall before a loop iteration's claim site.
	FaultSiteStallPre = "stall-pre"
	// FaultSiteStallPost is a stall between a committed write and the
	// barrier publishing it.
	FaultSiteStallPost = "stall-post"
	// FaultSiteBarrierJitter is a delay at barrier arrival.
	FaultSiteBarrierJitter = "barrier-jitter"
	// FaultSiteStealDelay is a delay between claiming and running a
	// stolen chunk.
	FaultSiteStealDelay = "steal-delay"
	// FaultSiteClaimStorm is a preemption storm / sticky-loser burst
	// after a lost claim.
	FaultSiteClaimStorm = "claim-storm"
)

var faultSiteNames = [...]string{
	1: FaultSiteStallPre,
	2: FaultSiteStallPost,
	3: FaultSiteBarrierJitter,
	4: FaultSiteStealDelay,
	5: FaultSiteClaimStorm,
}

func faultCode(site string) uint64 {
	for c := 1; c < len(faultSiteNames); c++ {
		if faultSiteNames[c] == site {
			return uint64(c)
		}
	}
	return 0
}

// FaultSiteName returns the site name for a KindFault Arg code, or
// "fault" for an unknown code.
func FaultSiteName(code uint64) string {
	if code >= 1 && code < uint64(len(faultSiteNames)) {
		return faultSiteNames[code]
	}
	return "fault"
}
