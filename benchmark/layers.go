package main

import (
	"fmt"
	"math"

	"crcwpram/internal/core/machine"
)

// reports returns one report per workload: the end-to-end metrics, plus
// the per-layer metrics when they were measured.
func (b *bench) reports() []*report {
	out := make([]*report, len(b.states))
	for i, st := range b.states {
		r := st.endToEndReport()
		if b.cfg.layers {
			b.layerReport(r, st)
		}
		out[i] = r
	}
	return out
}

// pct returns a ÷ b − 1 in percent, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a/b - 1) * 100
}

// layerReport adds the per-layer metrics of st to r.
func (b *bench) layerReport(r *report, st *state) {
	rs := b.rungs.samples
	for _, d := range perLayer {
		if xs, ok := rs[d.name]; ok {
			r.set(d.name, median(xs), rungNote(xs))
		}
	}
	// One empty-round rung per timed backend; the workloads run on the
	// machine's default one, and the best shows what the other would save.
	def := b.rungs.def
	best := math.Inf(1)
	for _, e := range machine.Execs {
		xs := rs[emptyRoundName(e)]
		v := median(xs)
		best = min(best, v)
		r.extra = append(r.extra, fmt.Sprintf("%-34s %14.6g %-5s %s", emptyRoundName(e), v, "ns", rungNote(xs)))
	}
	emptyRound := median(rs[emptyRoundName(def)])
	r.set("exec.empty_round_ns", emptyRound, "backend "+def.String())
	r.set("exec.empty_round_ns.best", best, "cheapest of the timed backends")

	tp := st.traced
	n := fmt.Sprintf("median of %d traced runs", len(tp.run))
	r.attempted += tp.attempted
	r.failed += tp.failed
	r.set("cw.cas_attempts_per_run", median(tp.attempts), n)
	r.set("cw.cas_wins_per_run", median(tp.wins), n)
	r.set("cw.win_ratio", ratio(sum(tp.wins), sum(tp.attempts)), "wins / CAS attempts")
	r.set("cw.precheck_skips_per_run", median(tp.skips), n)
	r.set("cw.precheck_share", ratio(sum(tp.skips), sum(tp.skips)+sum(tp.attempts)), "pre-check skips / selection calls")
	r.set("cw.rounds_per_run", median(tp.rounds), n)

	tr := st.trace
	exact := "exact, from an exec=trace replay"
	r.set("exec.steps_per_run", float64(tr.Steps), exact)
	r.set("exec.barriers_per_run", float64(tr.Barriers), exact)
	r.set("exec.singles_per_run", float64(tr.Singles), exact)
	r.set("exec.round_wall_ms_per_run", median(tp.roundMs), n)

	r.set("machine.busy_ms_per_run", median(tp.busyMs), n)
	r.set("machine.barrier_wait_ms_per_run", median(tp.waitMs), n)
	r.set("machine.busy_share", median(tp.busyShare), n)
	r.set("machine.busy_imbalance", median(tp.busyImbalance), "max / mean worker busy, "+n)

	r.set("sched.steals_per_run", median(tp.steals), n)
	r.set("sched.steal_fail_ratio", ratio(sum(tp.stealFails), sum(tp.steals)+sum(tp.stealFails)), "failed / attempted steals")
	r.set("sched.chunks_local_per_run", median(tp.chunksLocal), n)
	crit := ratio(float64(tr.MaxIters()), float64(tr.TotalIters()))
	r.set("sched.iter_imbalance", crit*float64(tr.P), exact)

	bareNote := fmt.Sprintf("bare machine, median of %d runs", len(st.allocKB))
	r.set("alg.alloc_kb_per_run", median(st.allocKB), bareNote)
	r.set("alg.allocs_per_run", median(st.allocs), bareNote)
	r.extra = append(r.extra, fmt.Sprintf("%-34s %14.6g %-5s %s", "alg.alloc_kb_per_run.metrics", median(tp.allocKB), "KB", "on the traced pass's metrics machine, "+n),
		fmt.Sprintf("%-34s %14.6g %-5s %s", "alg.allocs_per_run.metrics", median(tp.allocs), "count", "on the traced pass's metrics machine, "+n))
	serial := median(st.serial)
	r.set("alg.serial_ms", serial, rungNote(st.serial))

	r.set("metrics.overhead_pct", pct(median(st.paired[withMetrics]), median(st.paired[bare])),
		fmt.Sprintf("paired blocks, %d/%d runs", len(st.paired[withMetrics]), len(st.paired[bare])))
	r.set("trace.overhead_pct", pct(median(st.paired[withEvents]), median(st.paired[bare])),
		fmt.Sprintf("paired blocks, %d/%d runs", len(st.paired[withEvents]), len(st.paired[bare])))
	r.set("trace.spans_per_run", median(st.spans), fmt.Sprintf("median of %d drained runs", len(st.spans)))
	r.set("trace.dropped_per_run", median(st.dropped), fmt.Sprintf("median of %d drained runs", len(st.dropped)))

	slicesNote := fmt.Sprintf("median of %d slices", len(st.gen))
	r.set("graph.gen_ms", median(st.gen), slicesNote)
	r.set("kernel.new_ms", median(st.kernelNew), slicesNote)
	r.set("kernel.prepare_ms_p50", median(st.prep), fmt.Sprintf("n=%d", len(st.prep)))

	// The ladder: the busiest worker's share of the serial compute plus
	// one empty round per step.
	predicted := serial*crit + float64(tr.Steps)*emptyRound/1e6
	measured := r.values["run_ms_p50"].v
	r.set("ladder.predicted_ms", predicted, fmt.Sprintf("measured run_ms_p50 %.4g ms", measured))
	r.set("ladder.err_pct", math.Abs(pct(predicted, measured)), "|predicted / measured - 1|")
	r.extra = append(r.extra, fmt.Sprintf("%-34s %+14.4g %-5s %s", "ladder.signed_err_pct", pct(predicted, measured), "%", "predicted / measured - 1"))

	r.set("bench.trace_overhead_pct", pct(median(tp.run), measured), fmt.Sprintf("traced p50 %.4g ms", median(tp.run)))
}
