package bench

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/kernel"
	"crcwpram/internal/sched"
)

// MetricsRow is one kernel run's live-contention snapshot: the aggregated
// per-worker counters (internal/core/metrics) of a full run under a timed
// execution backend. Unlike the counting benches, which replay serially
// under the trace backend, these numbers come from genuinely concurrent
// runs — they show the contention the paper's protocols actually absorb,
// at the price of not being bit-for-bit repeatable.
type MetricsRow struct {
	Kernel string
	Method string // "" for listrank (EREW by construction: no CW method)
	Exec   machine.Exec
	// Policy is set only for the stealing-scheduler rows (the default
	// machine's rows leave it empty); those rows additionally carry the
	// deque-claim counters in the snapshot.
	Policy string
	Snap   metrics.Snapshot
}

// contentionMethods are the guarded selection protocols the contention
// table compares. Naive and Mutex are omitted: naive records every issued
// store as a win (no selection to observe) and mutex contention lives in
// the lock, not in a countable RMW.
var contentionMethods = []cw.Method{cw.CASLT, cw.GatekeeperChecked, cw.Gatekeeper}

// contentionRunMethods intersects the contention method set with a guarded
// descriptor's method axis; a kernel whose method is fixed by construction
// (an empty intersection) runs once under its own fixed method.
func contentionRunMethods(d *kernel.Descriptor) []cw.Method {
	var out []cw.Method
	for _, m := range contentionMethods {
		if d.SupportsMethod(m) {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		fixed := cw.CASLT
		if len(d.Methods) > 0 {
			fixed = d.Methods[0]
		}
		out = []cw.Method{fixed}
	}
	return out
}

// Contention runs every registered contention-classified kernel on a
// metrics-enabled machine under each requested timed backend (trace entries
// are skipped: the trace backend is serial, so its "contention" is vacuous;
// its deterministic claim counts are KernelOpCounts' job) and reports each
// run's aggregated
// metrics snapshot. ContentionNone and ContentionCAS kernels are skipped
// (no guarded round-structured CW to observe); the EREW ranker is the
// negative control whose counters must stay zero. The per-cell probe is
// attached for every run, so the table includes the paper's bound quantity
// — the maximum executed read-modify-writes any cell absorbed in a single
// round — and the run times are therefore NOT reported as measurements
// (the probe is an observer that adds a CAS per executed attempt).
//
// For CAS-LT rows of guarded kernels the probe maximum is checked against
// the paper's bound, kernel.Descriptor.ClaimBound: at most P executed CASes
// per cell per round, scaled by the descriptor's ProbeBoundFactor (2 for
// matching, whose propose and accept cell arrays share the probe's index
// space, giving two guarded writes per vertex id per round). A violation
// returns an error — it would falsify the claim the metrics layer exists
// to verify.
//
// Every result is validated against its sequential oracle before its
// snapshot is reported.
func Contention(reg *kernel.Registry, threads, vertices, edges int, seed int64, execs []machine.Exec) ([]MetricsRow, error) {
	m := machine.New(threads, machine.WithMetrics())
	defer m.Close()
	rec := m.Metrics()

	var rows []MetricsRow
	// run resets the recorder, attaches a cells-sized probe, executes one
	// prepared run under pprof labels identifying it (resetting again after
	// Prepare, whose untimed machine loops pollute the counters), validates,
	// then snapshots.
	run := func(d *kernel.Descriptor, inst kernel.Instance, name string, e machine.Exec, cells int, s kernel.Settings) error {
		rec.Reset()
		rec.EnableProbe(cells)
		var err error
		labels := pprof.Labels("kernel", d.Name, "method", name, "exec", e.String())
		pprof.Do(context.Background(), labels, func(context.Context) {
			inst.Prepare(s)
			rec.Reset()
			inst.Run(s)
			err = inst.Validate()
		})
		if err != nil {
			return fmt.Errorf("bench: metrics %s/%s/%s: %w", d.Name, name, e, err)
		}
		snap := m.Snapshot()
		if bound := d.ClaimBound(s.Method, threads); bound > 0 && snap.MaxCellClaims > bound {
			return fmt.Errorf("bench: metrics %s/%s/%s: %d executed CASes on one cell in one round, paper bounds it by %d",
				d.Name, name, e, snap.MaxCellClaims, bound)
		}
		rows = append(rows, MetricsRow{Kernel: d.Name, Method: name, Exec: e, Snap: snap})
		return nil
	}

	insts := map[string]kernel.Instance{}
	cells := map[string]int{}
	var swept []*kernel.Descriptor
	for _, d := range reg.All() {
		if d.Contention == kernel.ContentionNone || d.Contention == kernel.ContentionCAS {
			continue
		}
		w := countWorkload(d, vertices, edges, seed)
		insts[d.Name] = d.New(m, w)
		cells[d.Name] = countCells(d, w)
		swept = append(swept, d)
	}

	for _, e := range execs {
		if e == machine.ExecTrace {
			continue
		}
		for _, d := range swept {
			inst := insts[d.Name]
			if d.Contention == kernel.ContentionEREW {
				// The EREW kernels are the negative control: no concurrent
				// writes, so their rows carry only the time split with the
				// counters at zero. No probe, no method label.
				if err := run(d, inst, "", e, 0, kernel.Settings{Exec: e}); err != nil {
					return nil, err
				}
				continue
			}
			for _, method := range contentionRunMethods(d) {
				s := kernel.Settings{Exec: e, Method: method}
				if err := run(d, inst, method.String(), e, cells[d.Name], s); err != nil {
					return nil, err
				}
			}
		}
	}

	// The stealing-scheduler observability pass: random-mate CC on a
	// stealing-policy machine with its hooking loop opted into StealRange,
	// so the snapshot's deque-claim counters (chunks_local / steals /
	// steal_fails) are live alongside the usual contention split. Random
	// mate is the vehicle because its CAS-LT hooking both consumes round
	// ids (NextRound, so the rounds-to-convergence column stays populated)
	// and relaxes an arc-shaped irregular loop — the loop stealing exists
	// for. One row per timed backend, tagged with the policy. A registry
	// without the kernel (a pruned test registry) simply skips the pass.
	sd, ok := reg.Lookup("cc-randmate")
	if !ok {
		return rows, nil
	}
	sm := machine.New(threads, machine.WithMetrics(), machine.WithPolicy(sched.Stealing))
	defer sm.Close()
	srec := sm.Metrics()
	sw := countWorkload(sd, vertices, edges, seed)
	sinst := sd.New(sm, sw)
	for _, e := range execs {
		if e == machine.ExecTrace {
			continue
		}
		s := kernel.Settings{Exec: e, Method: cw.CASLT, Steal: kernel.StealOn}
		srec.Reset()
		srec.EnableProbe(countCells(sd, sw))
		sinst.Prepare(s)
		srec.Reset()
		sinst.Run(s)
		if err := sinst.Validate(); err != nil {
			return nil, fmt.Errorf("bench: metrics %s/caslt/%s policy=stealing: %w", sd.Name, e, err)
		}
		snap := sm.Snapshot()
		if bound := sd.ClaimBound(s.Method, threads); bound > 0 && snap.MaxCellClaims > bound {
			return nil, fmt.Errorf("bench: metrics %s/caslt/%s policy=stealing: %d executed CASes on one cell in one round, paper bounds it by %d",
				sd.Name, e, snap.MaxCellClaims, bound)
		}
		if snap.ChunksLocal == 0 {
			return nil, fmt.Errorf("bench: metrics %s/caslt/%s policy=stealing: no deque claims recorded", sd.Name, e)
		}
		rows = append(rows, MetricsRow{
			Kernel: sd.Name,
			Method: cw.CASLT.String(),
			Exec:   e,
			Policy: sched.Stealing.String(),
			Snap:   snap,
		})
	}
	return rows, nil
}

// FormatContention renders the contention snapshots as an aligned table.
func FormatContention(w io.Writer, threads, vertices, edges int, rows []MetricsRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== metrics: live contention per full run (p=%d, n=%d, m=%d; maxfind n=512) ==\n",
		threads, vertices, edges)
	out := [][]string{{"kernel", "method", "exec", "policy", "attempts", "wins", "losses",
		"skips", "max/cell/round", "rounds", "steals", "busy", "barrier", "roundwall"}}
	ms := func(ns int64) string {
		return time.Duration(ns).Round(10 * time.Microsecond).String()
	}
	for _, r := range rows {
		method := r.Method
		if method == "" {
			method = "-"
		}
		policy := r.Policy
		if policy == "" {
			policy = "-"
		}
		out = append(out, []string{
			r.Kernel,
			method,
			r.Exec.String(),
			policy,
			strconv.FormatUint(r.Snap.CASAttempts, 10),
			strconv.FormatUint(r.Snap.CASWins, 10),
			strconv.FormatUint(r.Snap.CASLosses, 10),
			strconv.FormatUint(r.Snap.PrecheckSkips, 10),
			strconv.FormatUint(r.Snap.MaxCellClaims, 10),
			strconv.FormatUint(r.Snap.Rounds, 10),
			strconv.FormatUint(r.Snap.Steals, 10),
			ms(r.Snap.BusyNs),
			ms(r.Snap.BarrierWaitNs),
			ms(r.Snap.RoundNs),
		})
	}
	writeAligned(&b, out)
	b.WriteString("\nattempts are executed RMWs (wins + losses); skips were resolved by the\n" +
		"plain-load pre-check without touching an atomic. max/cell/round is the\n" +
		"most RMWs any single cell absorbed in one round — the paper bounds it\n" +
		"by P for CAS-LT. busy/barrier sum each worker's in-loop vs waiting\n" +
		"time; roundwall is the coordinator's wall clock over parallel rounds.\n" +
		"The per-cell probe is attached, so these runs are NOT timings.\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ContentionJSONRows converts the contention snapshots to the
// machine-readable trajectory rows. Like the counting benches they carry
// no ns_op — the probe distorts timing — but unlike those they record the
// timed backend that produced them, because the contention itself is the
// measurement.
func ContentionJSONRows(rows []MetricsRow, threads int) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:         "metrics",
			Kernel:        r.Kernel,
			Method:        r.Method,
			Exec:          r.Exec.String(),
			Policy:        r.Policy,
			Threads:       threads,
			Rounds:        r.Snap.Rounds,
			CASAttempts:   r.Snap.CASAttempts,
			CASWins:       r.Snap.CASWins,
			CASLosses:     r.Snap.CASLosses,
			PrecheckSkips: r.Snap.PrecheckSkips,
			MaxCellClaims: r.Snap.MaxCellClaims,
			ChunksLocal:   r.Snap.ChunksLocal,
			Steals:        r.Snap.Steals,
			StealFails:    r.Snap.StealFails,
			BusyNs:        r.Snap.BusyNs,
			BarrierWaitNs: r.Snap.BarrierWaitNs,
			RoundNs:       r.Snap.RoundNs,
			RoundWallNs:   r.Snap.RoundWallNs,
		})
	}
	return out
}
