package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
)

// OpCountRow is one row of the Section 6 validation experiment: the
// atomic operations each method executes when pprm virtual processors
// concurrently write one shared cell.
type OpCountRow struct {
	PPRAM int
	// Per method: loads, atomic RMWs, wins.
	CASLT       [3]uint64
	GateChecked [3]uint64
	Gate        [3]uint64
}

// OpCountTable empirically validates the paper's Section 6 asymptotics:
// for a concurrent-write step of P_PRAM virtual processors on one cell,
// the gatekeeper executes Θ(P_PRAM) atomic read-modify-writes (full
// serialization), the checked gatekeeper and CAS-LT replace almost all of
// them with plain loads, and CAS-LT's RMW count stays bounded by the
// physical concurrency regardless of P_PRAM. threads is P_Phys. Each step
// runs on a metrics machine and records every claim on the claiming
// worker's shard, as the timed kernels do.
func OpCountTable(threads int, pprmSweep []int) []OpCountRow {
	m := machine.New(threads, machine.WithMetrics())
	defer m.Close()
	rec := m.Metrics()
	step := func(method cw.Method, pprm int, claim func() cw.Outcome) [3]uint64 {
		rec.Reset()
		m.ParallelForWorker(pprm, func(_, w int) { rec.Shard(w).Claim(0, 1, claim()) })
		loads, rmws, wins := methodOps(method, m.Snapshot())
		return [3]uint64{loads, rmws, wins}
	}
	rows := make([]OpCountRow, 0, len(pprmSweep))
	for _, pprm := range pprmSweep {
		var cell cw.Cell
		var checked, gate cw.Gate
		rows = append(rows, OpCountRow{
			PPRAM:       pprm,
			CASLT:       step(cw.CASLT, pprm, func() cw.Outcome { return cell.TryClaimOutcome(1) }),
			GateChecked: step(cw.GatekeeperChecked, pprm, checked.TryEnterCheckedOutcome),
			Gate:        step(cw.Gatekeeper, pprm, gate.TryEnterOutcome),
		})
	}
	return rows
}

// FormatOpCounts renders the op-count experiment as an aligned table.
func FormatOpCounts(w io.Writer, threads int, rows []OpCountRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== section-6: atomic operations per concurrent-write step (P_Phys=%d workers) ==\n", threads)
	out := [][]string{{
		"P_PRAM",
		"caslt loads", "caslt RMWs",
		"gate-checked loads", "gate-checked RMWs",
		"gatekeeper RMWs",
	}}
	for _, r := range rows {
		out = append(out, []string{
			strconv.Itoa(r.PPRAM),
			strconv.FormatUint(r.CASLT[0], 10),
			strconv.FormatUint(r.CASLT[1], 10),
			strconv.FormatUint(r.GateChecked[0], 10),
			strconv.FormatUint(r.GateChecked[1], 10),
			strconv.FormatUint(r.Gate[1], 10),
		})
	}
	writeAligned(&b, out)
	b.WriteString("\nthe paper's Section 6 claims, checked: gatekeeper RMWs = P_PRAM (full\n" +
		"serialization); CAS-LT RMWs stay O(P_Phys) while its loads scale as P_PRAM;\n" +
		"the checked gatekeeper recovers most of the gap but still needs the O(N)\n" +
		"reset pass between rounds, which CAS-LT never pays.\n")
	_, err := io.WriteString(w, b.String())
	return err
}
