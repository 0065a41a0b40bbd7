package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"
	"crcwpram/internal/sched"
)

// Row is one machine-readable measurement, the unit of the -json output:
// enough identity (kernel, method, execution mode, worker count, sweep
// position) to track a benchmark trajectory across commits.
type Row struct {
	Bench   string  `json:"bench"`            // "figure" or "roundoverhead"
	Figure  string  `json:"figure,omitempty"` // e.g. "fig7"
	Kernel  string  `json:"kernel,omitempty"` // "maxfind", "bfs", "cc", ...
	Method  string  `json:"method,omitempty"` // concurrent-write method
	Exec    string  `json:"exec"`             // execution mode: team | trace
	Threads int     `json:"threads"`          // worker count of the point
	XLabel  string  `json:"x_label,omitempty"`
	X       int     `json:"x,omitempty"`
	NsOp    float64 `json:"ns_op"` // median ns per run (or per round)

	// Edge-balance sweep extras (bench "edgebalance"): the workload identity
	// and the deterministic work model. WorkCrit is the modelled critical
	// path (sum over rounds of the busiest worker's units), WorkIdeal the
	// per-round perfect split of the same units, Imbalance their ratio — the
	// number a wall clock would show with one core per worker, reported
	// alongside NsOp because wall time on an oversubscribed host cannot
	// separate balance from scheduling noise.
	Graph     string  `json:"graph,omitempty"`   // workload graph name
	Balance   string  `json:"balance,omitempty"` // partitioning: vertex | edge
	Policy    string  `json:"policy,omitempty"`  // scheduling policy of the cell
	Depth     int     `json:"depth,omitempty"`   // BFS depth reached
	WorkTotal uint64  `json:"work_total,omitempty"`
	WorkCrit  uint64  `json:"work_crit,omitempty"`
	WorkIdeal uint64  `json:"work_ideal,omitempty"`
	Imbalance float64 `json:"imbalance,omitempty"` // WorkCrit / WorkIdeal

	// Counting extras (benches "kernelops" and "kerneltrace"): produced by
	// the trace execution backend, the kernelops operations from the claims
	// it records on the metrics shards. These rows carry no timing (NsOp is zero by construction —
	// a traced replay is not a measurement) but pin the per-run operation
	// and synchronization totals, which are deterministic and therefore
	// diffable across commits without noise.
	Loads     uint64 `json:"loads,omitempty"`      // pre-check plain loads
	RMWs      uint64 `json:"rmws,omitempty"`       // atomic RMWs
	Wins      uint64 `json:"wins,omitempty"`       // winning writes
	Steps     uint64 `json:"steps,omitempty"`      // work-shared loops
	Barriers  uint64 `json:"barriers,omitempty"`   // synchronization points
	Singles   uint64 `json:"singles,omitempty"`    // serial sections
	Rounds    uint64 `json:"rounds,omitempty"`     // CW round ids consumed
	IterMax   uint64 `json:"iter_max,omitempty"`   // busiest logical worker
	IterTotal uint64 `json:"iter_total,omitempty"` // summed iterations

	// Live-contention extras (bench "metrics"): aggregated from the
	// metrics layer's per-worker shards over one full kernel run under a
	// timed backend (internal/core/metrics). These rows also carry no
	// ns_op — the per-cell probe that produces MaxCellClaims adds a CAS
	// per executed attempt, so their wall clock is not a measurement —
	// but the exec field names the timed backend that ran them, because
	// contention only exists under genuine concurrency.
	// Steal counters (benches "stealing" and "metrics"): the deque-claim
	// split of the stealing scheduler, aggregated from the same per-worker
	// shards. Zero by construction for every policy but stealing.
	ChunksLocal uint64 `json:"chunks_local,omitempty"` // chunks a worker popped from its own deque
	Steals      uint64 `json:"steals,omitempty"`       // chunks taken from a victim's deque
	StealFails  uint64 `json:"steal_fails,omitempty"`  // steal attempts that found nothing (or lost the CAS)

	// Locality extras (bench "locality"): the representation and CSR-order
	// axes plus the deterministic cache-line-touch model (localitymodel.go).
	// Bitmap rows carry the modelled line-touch pair — their own number and
	// the word-representation baseline of the same cell — so the packing
	// ratio is diffable from a single row; word rows are pure timings.
	// PermHash fingerprints the applied CSR permutation and is nonzero
	// exactly on relabeled rows.
	Repr            string `json:"repr,omitempty"`              // membership repr: word | bitmap
	Relabel         string `json:"relabel,omitempty"`           // CSR order: none | degree | bfs
	LineTouches     uint64 `json:"line_touches,omitempty"`      // modelled distinct line touches
	LineTouchesWord uint64 `json:"line_touches_word,omitempty"` // word baseline of the same cell
	PermHash        uint64 `json:"perm_hash,omitempty"`         // relabeling permutation fingerprint

	// Observability-overhead extras (bench "metricsoverhead"): Variant
	// names the instrumentation configuration of a timed cell — "off"
	// (bare machine, the production default), "metrics" (counter shards
	// attached) or "evtrace" (the event-trace flight recorder attached,
	// which implies metrics) — so the committed baseline pins all three
	// medians of the same kernel and the off-vs-on deltas are diffable
	// across commits.
	Variant string `json:"variant,omitempty"`

	// RoundWallNs is the per-round coordinator wall-time series of a
	// metrics row (metrics.Snapshot.RoundWallNs); its entries sum to
	// RoundNs. Present only when the producing run recorded round times.
	RoundWallNs []int64 `json:"round_wall_ns,omitempty"`

	CASAttempts   uint64 `json:"cas_attempts,omitempty"`    // executed RMWs (wins + losses)
	CASWins       uint64 `json:"cas_wins,omitempty"`        // winning RMWs
	CASLosses     uint64 `json:"cas_losses,omitempty"`      // losing RMWs
	PrecheckSkips uint64 `json:"precheck_skips,omitempty"`  // resolved by plain-load pre-check
	MaxCellClaims uint64 `json:"max_cell_claims,omitempty"` // max RMWs on one cell in one round
	BusyNs        int64  `json:"busy_ns,omitempty"`         // summed worker in-loop time
	BarrierWaitNs int64  `json:"barrier_wait_ns,omitempty"` // summed worker barrier waits
	RoundNs       int64  `json:"round_ns,omitempty"`        // coordinator wall over parallel rounds
}

// countingBench reports whether a bench's rows are deterministic counts
// rather than timings (see the counting extras on Row).
func countingBench(bench string) bool {
	return bench == "kernelops" || bench == "kerneltrace"
}

// Rows flattens a figure table into machine-readable rows. defaultThreads
// is the fixed worker count of non-thread-sweep figures; for thread sweeps
// the x value is the worker count.
func (t *Table) Rows(defaultThreads int) []Row {
	var out []Row
	for _, s := range t.Series {
		for i, x := range t.Xs {
			threads := defaultThreads
			if t.XLabel == "threads" {
				threads = x
			}
			out = append(out, Row{
				Bench:   "figure",
				Figure:  t.ID,
				Kernel:  t.Kernel,
				Method:  s.Method.String(),
				Exec:    t.Exec,
				Balance: t.Balance,
				Policy:  t.Policy,
				Threads: threads,
				XLabel:  t.XLabel,
				X:       x,
				NsOp:    float64(s.Points[i].Median.Nanoseconds()),
			})
		}
	}
	return out
}

// WriteJSON emits rows as indented JSON (one array), stable for diffing
// committed baselines.
func WriteJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// ValidateJSON reads a -json output back and checks its shape: one
// non-empty array whose every row names a bench, a known execution mode, a
// positive worker count and a positive measurement — except the counting
// benches (kernelops, kerneltrace), whose rows are trace-produced counts
// and must instead carry a zero timing, the trace exec and a non-empty
// structure. Edge-balance rows additionally carry a consistent work model
// (Total >= Crit >= Ideal > 0). CI's perf-smoke step runs this so a
// malformed trajectory fails the build instead of polluting committed
// baselines. It returns the number of rows checked.
//
// The legal value sets — exec names, method names, representation and
// relabel axes, scheduling policies — come from the axis metadata of the
// kernel registry and the parsers it is built on, not from literals
// duplicated per sweep, so a kernel or axis value added by registration is
// accepted here with no edits. Which counter discipline applies to a
// metrics row likewise follows the registered kernel's contention class.
func ValidateJSON(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	var rows []Row
	if err := dec.Decode(&rows); err != nil {
		return 0, fmt.Errorf("parse: %w", err)
	}
	if dec.More() {
		return 0, fmt.Errorf("trailing data after the row array")
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("no rows")
	}
	for i, row := range rows {
		fail := func(format string, args ...any) (int, error) {
			return 0, fmt.Errorf("row %d: %s", i, fmt.Sprintf(format, args...))
		}
		if row.Bench == "" {
			return fail("missing bench")
		}
		if !kernel.ValidAxisValue(kernel.AxisExec, row.Exec) {
			return fail("unknown exec %q", row.Exec)
		}
		if row.Threads <= 0 {
			return fail("non-positive threads %d", row.Threads)
		}
		if countingBench(row.Bench) {
			// Counting rows are traced, not timed: no ns_op, but the
			// structure must be there — every kernel has at least one
			// work-shared loop and its closing barrier.
			if row.Exec != "trace" {
				return fail("%s row with exec %q, want trace", row.Bench, row.Exec)
			}
			if row.NsOp != 0 {
				return fail("%s row carries ns_op %v", row.Bench, row.NsOp)
			}
			if row.Steps == 0 || row.Barriers == 0 {
				return fail("%s row missing steps/barriers", row.Bench)
			}
		} else if row.Bench == "metrics" {
			// Contention rows come from a probe-carrying run under a timed
			// backend: no ns_op, but every guarded kernel must have executed
			// attempts, and the EREW negative controls (registered with
			// ContentionEREW, e.g. listrank) must have zero counters. The
			// class is looked up in the registry; an unregistered kernel name
			// defaults to the guarded discipline.
			if row.Exec == "trace" {
				return fail("metrics row with exec trace, want a timed backend")
			}
			if row.NsOp != 0 {
				return fail("metrics row carries ns_op %v", row.NsOp)
			}
			if row.Kernel == "" {
				return fail("metrics row missing kernel")
			}
			if row.CASAttempts != row.CASWins+row.CASLosses {
				return fail("metrics row attempts %d != wins %d + losses %d",
					row.CASAttempts, row.CASWins, row.CASLosses)
			}
			erew := false
			if d, ok := kernel.Lookup(row.Kernel); ok {
				erew = d.Contention == kernel.ContentionEREW
			}
			if erew {
				if row.CASAttempts != 0 || row.PrecheckSkips != 0 {
					return fail("%s (EREW) metrics row carries CW counters", row.Kernel)
				}
			} else if row.CASAttempts == 0 || row.CASWins == 0 {
				return fail("metrics row for %s without executed attempts", row.Kernel)
			}
			if row.BusyNs <= 0 || row.RoundNs <= 0 {
				return fail("metrics row missing time split busy=%d round=%d",
					row.BusyNs, row.RoundNs)
			}
			if row.Rounds == 0 {
				return fail("metrics row for %s without rounds-to-convergence", row.Kernel)
			}
			if len(row.RoundWallNs) > 0 {
				var sum int64
				for _, ns := range row.RoundWallNs {
					sum += ns
				}
				if sum != row.RoundNs {
					return fail("metrics row round_wall_ns sums to %d, round_ns is %d",
						sum, row.RoundNs)
				}
			}
		} else if !(row.NsOp > 0) {
			return fail("non-positive ns_op %v", row.NsOp)
		}
		if row.Bench == "metricsoverhead" {
			// Overhead rows are timed triples of the same kernel under the
			// three instrumentation variants; the variant axis is what the
			// committed baseline exists to pin.
			switch row.Variant {
			case "off", "metrics", "evtrace":
			default:
				return fail("metricsoverhead row with variant %q, want off, metrics or evtrace", row.Variant)
			}
			if row.Kernel == "" {
				return fail("metricsoverhead row missing kernel")
			}
		} else if row.Variant != "" {
			return fail("%s row carries variant %q", row.Bench, row.Variant)
		}
		if row.Bench == "edgebalance" {
			switch {
			case row.Graph == "" || row.Balance == "":
				return fail("edgebalance row missing graph/balance")
			case row.WorkIdeal == 0 || row.WorkCrit < row.WorkIdeal || row.WorkTotal < row.WorkCrit:
				return fail("inconsistent work model total=%d crit=%d ideal=%d",
					row.WorkTotal, row.WorkCrit, row.WorkIdeal)
			case row.Imbalance < 1:
				return fail("imbalance %v < 1", row.Imbalance)
			}
		}
		if row.Policy != "" {
			// Any policy-carrying row (benches "stealing" and "metrics"): the
			// name must parse, and the live deque counters must be nonzero
			// exactly for the stealing-policy cells — a stealing run that
			// claimed no chunks through its deques did not exercise the
			// scheduler it reports on.
			if _, ok := sched.ParsePolicy(row.Policy); !ok {
				return fail("unknown policy %q", row.Policy)
			}
			if row.Policy == "stealing" {
				// Only the counter-carrying benches promise live deque
				// counters; figure rows run uninstrumented machines.
				if (row.Bench == "stealing" || row.Bench == "metrics") && row.ChunksLocal == 0 {
					return fail("stealing-policy row claimed no local chunks")
				}
			} else if row.ChunksLocal != 0 || row.Steals != 0 || row.StealFails != 0 {
				return fail("policy %q row carries steal counters", row.Policy)
			}
		}
		if row.Bench == "locality" {
			// Locality rows are timed cells on the representation × relabel
			// axes. The line-touch model rides on bitmap rows only (carrying
			// both representations' numbers), and the permutation fingerprint
			// rides on relabeled rows only.
			if row.Graph == "" || row.Kernel == "" {
				return fail("locality row missing graph/kernel")
			}
			if !kernel.ValidAxisValue(kernel.AxisRepr, row.Repr) {
				return fail("locality row with repr %q, want word or bitmap", row.Repr)
			}
			if _, ok := graph.ParseRelabel(row.Relabel); !ok {
				return fail("unknown relabel mode %q", row.Relabel)
			}
			if row.Repr == "bitmap" {
				if row.LineTouches == 0 || row.LineTouchesWord == 0 {
					return fail("bitmap locality row missing line-touch model (%d/%d)",
						row.LineTouches, row.LineTouchesWord)
				}
			} else if row.LineTouches != 0 || row.LineTouchesWord != 0 {
				return fail("word locality row carries line touches")
			}
			if (row.Relabel != "none") != (row.PermHash != 0) {
				return fail("relabel %q with perm_hash %#x", row.Relabel, row.PermHash)
			}
		}
		if row.Bench == "stealing" {
			// Stealing rows carry the scheduling model; its Crit includes
			// per-chunk acquisition costs, so Crit >= Ideal is the invariant
			// (Total is the acquisition-free sum).
			switch {
			case row.Graph == "" || row.Policy == "":
				return fail("stealing row missing graph/policy")
			case row.WorkIdeal == 0 || row.WorkCrit < row.WorkIdeal:
				return fail("inconsistent scheduling model crit=%d ideal=%d",
					row.WorkCrit, row.WorkIdeal)
			case row.Imbalance < 1:
				return fail("imbalance %v < 1", row.Imbalance)
			}
		}
	}
	return len(rows), nil
}
