package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"crcwpram/internal/barrier"
)

// decl declares one reported metric: its name and unit. BENCHMARK.json
// declares the same names and units plus the bounds; the schema test keeps
// the two in step.
type decl struct{ name, unit string }

// endToEnd are the metrics a user of the library sees, reported from the
// untraced slices only.
var endToEnd = []decl{
	{"run_ms_p50", "ms"},
	{"run_ms_p90", "ms"},
	{"runs_per_s", "1/s"},
	{"cpu_ms_per_run", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayer are the metrics of single layers, named after the modules.
var perLayer = layerDecls()

func layerDecls() []decl {
	ds := []decl{
		{"cw.claim_ns.uncontended", "ns"},
		{"cw.claim_ns.precheck_hit", "ns"},
		{"cw.claim_ns.contended", "ns"},
		{"cw.gate_enter_ns", "ns"},
		{"cw.bit_claim_ns", "ns"},
		{"cw.cas_attempts_per_run", "count"},
		{"cw.cas_wins_per_run", "count"},
		{"cw.win_ratio", "ratio"},
		{"cw.precheck_skips_per_run", "count"},
		{"cw.precheck_share", "ratio"},
		{"cw.rounds_per_run", "count"},
		{"exec.empty_round_ns", "ns"},
		{"exec.empty_round_ns.best", "ns"},
		{"exec.steps_per_run", "count"},
		{"exec.barriers_per_run", "count"},
		{"exec.singles_per_run", "count"},
		{"exec.round_wall_ms_per_run", "ms"},
	}
	for _, k := range barrier.Kinds {
		ds = append(ds, decl{"barrier." + k.String() + "_ns", "ns"})
	}
	return append(ds, []decl{
		{"machine.busy_ms_per_run", "ms"},
		{"machine.barrier_wait_ms_per_run", "ms"},
		{"machine.busy_share", "ratio"},
		{"machine.busy_imbalance", "ratio"},
		{"machine.new_close_us", "us"},
		{"sched.steals_per_run", "count"},
		{"sched.steal_fail_ratio", "ratio"},
		{"sched.chunks_local_per_run", "count"},
		{"sched.iter_imbalance", "ratio"},
		{"sched.steal_chunk_ns", "ns"},
		{"alg.alloc_kb_per_run", "KB"},
		{"alg.allocs_per_run", "count"},
		{"alg.serial_ms", "ms"},
		{"metrics.overhead_pct", "%"},
		{"trace.overhead_pct", "%"},
		{"trace.spans_per_run", "count"},
		{"trace.dropped_per_run", "count"},
		{"graph.gen_ms", "ms"},
		{"kernel.new_ms", "ms"},
		{"kernel.prepare_ms_p50", "ms"},
		{"ladder.predicted_ms", "ms"},
		{"ladder.err_pct", "%"},
		{"bench.trace_overhead_pct", "%"},
	}...)
}

// value is one measured metric of one workload. note carries what the
// human-readable line adds: the sample count or the rung's spread.
type value struct {
	v    float64
	note string
}

// report is everything one workload measured.
type report struct {
	workload          string
	attempted, failed int
	values            map[string]value
	// extra holds printed-only lines: per-backend rungs and the signed
	// ladder error.
	extra []string
}

func (r *report) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = value{v, note}
}

// print writes one line per metric, end-to-end first.
func (r *report) print(w io.Writer, layers bool) {
	sets := [][]decl{endToEnd}
	if layers {
		sets = append(sets, perLayer)
	}
	for _, set := range sets {
		for _, d := range set {
			v := r.values[d.name]
			fmt.Fprintf(w, "%-13s %-34s %14.6g %-5s %s\n", r.workload, d.name, v.v, d.unit, v.note)
		}
	}
	for _, e := range r.extra {
		fmt.Fprintf(w, "%-13s %s\n", r.workload, e)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result folds the reports into the one-line JSON result: the end-to-end
// metrics without layers, the per-layer metrics with them. A single
// workload's metrics keep their names; with several, each name is
// prefixed by the workload's.
func result(reports []*report, layers bool) jsonResult {
	set := endToEnd
	if layers {
		set = perLayer
	}
	res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reports {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.failed > 0 {
			res.Correct = false
		}
		for _, d := range set {
			key := d.name
			if len(reports) > 1 {
				key = r.workload + "." + d.name
			}
			res.Metrics[key] = jsonMetric{r.values[d.name].v, d.unit}
		}
	}
	return res
}

func writeResult(w io.Writer, res jsonResult) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rungNote describes a rung sample: its spread and size.
func rungNote(xs []float64) string {
	return fmt.Sprintf("IQR %.3g, n=%d", quantile(xs, 0.75)-quantile(xs, 0.25), len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
