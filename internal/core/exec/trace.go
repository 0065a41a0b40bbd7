package exec

import (
	"fmt"

	"crcwpram/internal/core/metrics"
	"crcwpram/internal/sched"
)

// TraceStats is the structural record of one traced kernel execution:
// how many work-shared steps and synchronization points the kernel's
// round structure costs, and how the iteration load splits across the
// logical workers. Claims are not counted here: the replay records them on
// the machine's metrics shards, as a team run does (see Ctx.Metrics).
type TraceStats struct {
	// P is the logical worker count the replay partitioned loops for.
	P int
	// Steps counts work-shared loops (For/ForWorker/Range/Bounds/StealRange
	// calls).
	Steps int
	// Barriers counts synchronization points: the implicit barrier closing
	// each work-shared loop, each explicit Barrier(), and the barrier
	// closing each Single. Under team mode each is one sense barrier.
	Barriers int
	// Singles counts serial sections.
	Singles int
	// Iters is the per-logical-worker iteration count over all loops
	// (elements of the worker's shares, for Range/Bounds).
	Iters []uint64
	// Rounds is the number of round ids the kernel drew with NextRound:
	// one per round of its round loop (a BFS level, a hook phase), whether
	// or not the round claims anything.
	Rounds uint32
}

// MaxIters returns the busiest logical worker's iteration count — the
// critical path of the traced execution under the unit-cost model.
func (st *TraceStats) MaxIters() uint64 {
	var max uint64
	for _, it := range st.Iters {
		if it > max {
			max = it
		}
	}
	return max
}

// TotalIters returns the summed iteration count over all logical workers.
func (st *TraceStats) TotalIters() uint64 {
	var tot uint64
	for _, it := range st.Iters {
		tot += it
	}
	return tot
}

// traceCtx replays the kernel serially on the caller with P logical
// workers: every loop is partitioned exactly as the Block team backend
// would partition it, the shares run in worker order, and the
// structure (steps, barriers, singles, per-worker iterations) is counted
// instead of synchronized. The replay is deterministic — logical worker w
// always runs before w+1 — so traced results double as a reference
// execution in differential tests.
type traceCtx struct {
	p     int
	chunk int // machine chunk size, bounding the stealing chunk geometry
	flag  *Flag
	rec   *metrics.Recorder
	stats *TraceStats
	round uint32 // the replay's copy of the machine's round counter
}

func (c *traceCtx) P() int      { return c.p }
func (c *traceCtx) Worker() int { return 0 }

// loop counts and serially executes one work-shared round: one step, one
// implicit closing barrier.
func (c *traceCtx) loop(n int, body func(i, w int)) {
	c.stats.Steps++
	c.stats.Barriers++
	if n <= 0 {
		return
	}
	for w := 0; w < c.p; w++ {
		lo, hi := sched.BlockRange(n, c.p, w)
		c.stats.Iters[w] += uint64(hi - lo)
		for i := lo; i < hi; i++ {
			body(i, w)
		}
	}
}

func (c *traceCtx) For(n int, body func(i int)) {
	c.loop(n, func(i, _ int) { body(i) })
}

func (c *traceCtx) ForWorker(n int, body func(i, w int)) {
	c.loop(n, body)
}

func (c *traceCtx) Range(n int, body func(lo, hi, w int)) {
	c.stats.Steps++
	c.stats.Barriers++
	if n <= 0 {
		return
	}
	for w := 0; w < c.p; w++ {
		// Like ParallelRange and TeamCtx.Range, empty shares skip the body.
		if lo, hi := sched.BlockRange(n, c.p, w); lo < hi {
			c.stats.Iters[w] += uint64(hi - lo)
			body(lo, hi, w)
		}
	}
}

func (c *traceCtx) Bounds(bounds []int, body func(lo, hi, w int)) {
	if len(bounds) != c.p+1 {
		panic(fmt.Sprintf("exec: Bounds: %d bounds for %d workers", len(bounds), c.p))
	}
	c.stats.Steps++
	c.stats.Barriers++
	if bounds[c.p] <= bounds[0] {
		return
	}
	for w := 0; w < c.p; w++ {
		if lo, hi := bounds[w], bounds[w+1]; lo < hi {
			c.stats.Iters[w] += uint64(hi - lo)
			body(lo, hi, w)
		}
	}
}

// StealRange replays the stealing loop's recorded chunk log: with a serial
// replay no worker ever idles, so no steals occur and each logical worker's
// log is exactly its seeded deque drained in ascending index order — the
// block partition of [0, n), walked chunk by chunk with the real chunk
// geometry (sched.StealChunk of the machine's chunk bound). Deterministic,
// like every trace loop.
func (c *traceCtx) StealRange(n int, body func(lo, hi, w int)) {
	c.stats.Steps++
	c.stats.Barriers++
	if n <= 0 {
		return
	}
	chunk := sched.StealChunk(n, c.p, c.chunk)
	for w := 0; w < c.p; w++ {
		lo, hi := sched.BlockRange(n, c.p, w)
		c.stats.Iters[w] += uint64(hi - lo)
		for clo := lo; clo < hi; clo += chunk {
			chi := clo + chunk
			if chi > hi {
				chi = hi
			}
			body(clo, chi, w)
		}
	}
}

func (c *traceCtx) Barrier() { c.stats.Barriers++ }

func (c *traceCtx) Single(f func()) {
	c.stats.Singles++
	c.stats.Barriers++
	f()
}

func (c *traceCtx) Flag() *Flag { return c.flag }

// NextRound advances the replay's copy of the machine's round counter and
// credits the round to the machine's recorder, as the team backend's
// coordinator does.
func (c *traceCtx) NextRound() uint32 {
	c.round++
	c.stats.Rounds++
	c.rec.AddRounds(1)
	return c.round
}

// Metrics returns the machine's recorder (nil when metrics are off): the
// replay records its claims and rounds on the logical workers' shards, but
// no time, since the timing of a serial replay would be meaningless.
func (c *traceCtx) Metrics() *metrics.Recorder { return c.rec }
