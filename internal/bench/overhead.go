package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"crcwpram/internal/bench/sweep"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/kernel"
)

// ObsOverheadRow is one timed cell of the observability-overhead
// comparison: the same kernel run under one of three instrumentation
// variants — "off" (bare machine, the production default), "metrics"
// (counter shards attached) or "evtrace" (the event-trace flight
// recorder attached, which implies metrics) — so the off-vs-on deltas
// that BENCH_metrics_overhead.json commits are produced by one driver
// on identical prepared inputs.
type ObsOverheadRow struct {
	Variant string
	Kernel  string
	Method  string
	Exec    string
	P       int
	NsOp    float64
}

// obsVariants orders the instrumentation axis from cheapest to fullest.
var obsVariants = []string{"off", "metrics", "evtrace"}

// ObservabilityOverhead times a full CAS-LT BFS run (the kernel-level
// overhead witness the old text baseline used) under each
// instrumentation variant at p = 1 and p = cfg.Threads on the machine's
// default backend, median of cfg.Reps repetitions with preparation untimed and
// validation outside the timed region. Unlike the contention sweep no
// probe is attached — these rows ARE timings, and their whole point is
// that the three variants stay within noise of each other.
func ObservabilityOverhead(cfg Config) ([]ObsOverheadRow, error) {
	cfg = cfg.withDefaults()
	d, ok := kernel.Lookup("bfs")
	if !ok {
		return nil, fmt.Errorf("bench: overhead: bfs kernel not registered")
	}
	method := cw.CASLT
	if !d.SupportsMethod(method) && len(d.Methods) > 0 {
		method = d.Methods[0]
	}
	w := countWorkload(d, cfg.BFSVertices, cfg.BFSEdges, cfg.Seed)
	ps := []int{1, cfg.Threads}
	if cfg.Threads <= 1 {
		ps = ps[:1]
	}
	var rows []ObsOverheadRow
	for _, p := range ps {
		for _, variant := range obsVariants {
			var opts []machine.Option
			switch variant {
			case "metrics":
				opts = append(opts, machine.WithMetrics())
			case "evtrace":
				opts = append(opts, machine.WithEventTrace(evtrace.New(p, evtrace.DefaultCap)))
			}
			m := machine.New(p, opts...)
			s := kernel.Settings{Exec: m.Exec(), Method: method}
			inst := d.New(m, w)
			sample := sweep.Time(cfg.Reps, func() {
				inst.Prepare(s)
				m.Events().Reset() // nil-safe; keeps each rep's rings fresh
			}, func() {
				inst.Run(s)
			})
			err := inst.Validate()
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("bench: overhead %s/%s p=%d: %w", d.Name, variant, p, err)
			}
			rows = append(rows, ObsOverheadRow{
				Variant: variant,
				Kernel:  d.Name,
				Method:  method.String(),
				Exec:    m.Exec().String(),
				P:       p,
				NsOp:    float64(sample.Median().Nanoseconds()),
			})
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "overhead: %s/%s p=%d median %.0f ns\n",
					d.Name, variant, p, rows[len(rows)-1].NsOp)
			}
		}
	}
	return rows, nil
}

// FormatObsOverhead renders the overhead triples with each variant's
// ratio against the bare-machine row of the same worker count.
func FormatObsOverhead(w io.Writer, rows []ObsOverheadRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== overhead: observability-layer cost on a full kernel run ==\n")
	off := map[int]float64{}
	for _, r := range rows {
		if r.Variant == "off" {
			off[r.P] = r.NsOp
		}
	}
	table := [][]string{{"kernel", "method", "p", "variant", "median", "vs off"}}
	for _, r := range rows {
		ratio := "-"
		if base := off[r.P]; base > 0 && r.Variant != "off" {
			ratio = strconv.FormatFloat(r.NsOp/base, 'f', 3, 64) + "x"
		}
		table = append(table, []string{
			r.Kernel,
			r.Method,
			strconv.Itoa(r.P),
			r.Variant,
			strconv.FormatFloat(r.NsOp/1e6, 'f', 3, 64) + "ms",
			ratio,
		})
	}
	writeAligned(&b, table)
	b.WriteString("\noff is the production default (nil recorder: one predictable branch\n" +
		"in the worker loop); metrics adds the counter shards; evtrace adds the\n" +
		"flight recorder on top. The acceptance claim is that off stays within\n" +
		"run-to-run noise of the pre-observability tree and the on-variants'\n" +
		"ratios stay small on a real kernel.\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ObsOverheadJSONRows converts the overhead cells to trajectory rows
// (bench "metricsoverhead" — the JSON successor of the prose
// BENCH_metrics_overhead.txt baseline).
func ObsOverheadJSONRows(rows []ObsOverheadRow) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:   "metricsoverhead",
			Kernel:  r.Kernel,
			Method:  r.Method,
			Exec:    r.Exec,
			Threads: r.P,
			Variant: r.Variant,
			NsOp:    r.NsOp,
		})
	}
	return out
}
