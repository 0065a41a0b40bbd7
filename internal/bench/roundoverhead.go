package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
)

// This file measures the fixed cost of one empty PRAM round inside a
// kernel region — the quantity that sets the floor of every round-heavy
// kernel. An empty-body round is pure synchronization: one P-party team
// barrier inside a region entered once. The body runs through exec.Run,
// so the measurement includes the unified layer's own dispatch cost. The
// same measurement is available as BenchmarkRoundOverhead in the machine
// package, next to the cost of a round paid as a one-loop region
// (ParallelFor); this variant feeds the CLI's tables and JSON trajectory.

// OverheadRow is one measured (P, exec) cell of the round-overhead sweep.
type OverheadRow struct {
	P          int
	Exec       string
	NsPerRound float64
}

// RoundOverhead measures the median wall time of an empty work-shared
// round, in nanoseconds, for every worker count in ps under each timed
// execution mode. Each measurement times `rounds` consecutive empty rounds and is
// repeated reps times.
func RoundOverhead(ps []int, rounds, reps int, log io.Writer) []OverheadRow {
	if rounds <= 0 {
		rounds = 5000
	}
	if reps <= 0 {
		reps = 3
	}
	var out []OverheadRow
	for _, p := range ps {
		for _, e := range machine.Execs {
			// Machine construction is the untimed per-repetition reset; a
			// fresh machine per rep keeps barrier state cold, as before the
			// timing helpers were shared.
			var m *machine.Machine
			body := func() {
				exec.Run(m, e, func(ctx exec.Ctx) {
					for i := 0; i < rounds; i++ {
						ctx.For(p, func(int) {})
					}
				})
			}
			ns := medianNs(reps, func() {
				if m != nil {
					m.Close()
				}
				m = machine.New(p)
			}, body)
			m.Close()
			row := OverheadRow{
				P:          p,
				Exec:       e.String(),
				NsPerRound: ns / float64(rounds),
			}
			out = append(out, row)
			if log != nil {
				fmt.Fprintf(log, "roundoverhead p=%d exec=%s ns/round=%.1f\n", p, e.String(), row.NsPerRound)
			}
		}
	}
	return out
}

// FormatRoundOverhead renders the sweep as one row per worker count with
// one column per timed execution mode.
func FormatRoundOverhead(w io.Writer, rows []OverheadRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== roundoverhead: ns per empty work-shared round ==\n")
	byP := map[int]map[string]float64{}
	var ps []int
	for _, r := range rows {
		if byP[r.P] == nil {
			byP[r.P] = map[string]float64{}
			ps = append(ps, r.P)
		}
		byP[r.P][r.Exec] = r.NsPerRound
	}
	header := []string{"p"}
	for _, e := range machine.Execs {
		header = append(header, e.String())
	}
	table := [][]string{header}
	for _, p := range ps {
		line := []string{strconv.Itoa(p)}
		for _, e := range machine.Execs {
			line = append(line, strconv.FormatFloat(byP[p][e.String()], 'f', 1, 64))
		}
		table = append(table, line)
	}
	writeAligned(&b, table)
	_, err := io.WriteString(w, b.String())
	return err
}

// OverheadJSONRows converts the sweep to the generic machine-readable rows.
func OverheadJSONRows(rows []OverheadRow) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:   "roundoverhead",
			Kernel:  "empty-round",
			Exec:    r.Exec,
			Threads: r.P,
			NsOp:    r.NsPerRound,
		})
	}
	return out
}
