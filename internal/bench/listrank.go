package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"crcwpram/internal/alg/listrank"
	"crcwpram/internal/bench/sweep"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/kernel"
)

// The list-ranking sweep is the EREW comparison point the paper's
// conclusion proposes: Wyllie's pointer jumping uses no concurrent writes
// at all, so its cost is pure round structure — D(log N) rounds of W(N)
// work — making it the cleanest probe of the execution backend's per-round
// overhead on a kernel that actually moves data (unlike the empty-round
// sweep). Each cell times RankExec on a random single list under one
// backend; every result is validated against the sequential baseline.

// ListRankRow is one measured (size, exec) cell of the sweep.
type ListRankRow struct {
	N       int
	Exec    string
	Threads int
	NsOp    float64
}

// ListRank times Wyllie's list ranking for every list size in
// cfg.ListRankSizes under each given execution mode (default: the timed
// modes), cfg.Reps times per cell, reporting medians.
func ListRank(cfg Config, execs []machine.Exec) ([]ListRankRow, error) {
	cfg = cfg.withDefaults()
	if len(execs) == 0 {
		execs = machine.Execs
	}
	d, ok := kernel.Lookup("listrank")
	if !ok {
		return nil, fmt.Errorf("listrank: kernel not registered")
	}
	run := cfg.newRunner()
	defer run.Close()
	m := run.Machine(sweep.MachineKey{Threads: cfg.Threads, Policy: cfg.Policy})
	var rows []ListRankRow
	for _, n := range cfg.ListRankSizes {
		w := &kernel.Workload{Next: listrank.RandomList(n, cfg.Seed+int64(n))}
		for _, e := range execs {
			inst := run.Instance(d, m, w)
			cell, err := run.Timed(inst, kernel.Settings{Exec: e})
			if err != nil {
				return nil, fmt.Errorf("listrank n=%d exec=%s: %w", n, e, err)
			}
			rows = append(rows, ListRankRow{
				N:       n,
				Exec:    e.String(),
				Threads: cfg.Threads,
				NsOp:    float64(cell.Median.Nanoseconds()),
			})
			cfg.logf("listrank n=%d exec=%s median=%v\n", n, e, cell.Median)
		}
	}
	return rows, nil
}

// FormatListRank renders the sweep as one row per list size with one
// column per timed execution mode.
func FormatListRank(w io.Writer, threads int, rows []ListRankRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== listrank: Wyllie pointer jumping, ns per run (p=%d) ==\n", threads)
	byN := map[int]map[string]float64{}
	var ns []int
	for _, r := range rows {
		if byN[r.N] == nil {
			byN[r.N] = map[string]float64{}
			ns = append(ns, r.N)
		}
		byN[r.N][r.Exec] = r.NsOp
	}
	header := []string{"n"}
	for _, e := range machine.Execs {
		header = append(header, e.String()+"(ms)")
	}
	table := [][]string{header}
	for _, n := range ns {
		line := []string{strconv.Itoa(n)}
		for _, e := range machine.Execs {
			line = append(line, strconv.FormatFloat(byN[n][e.String()]/1e6, 'f', 3, 64))
		}
		table = append(table, line)
	}
	writeAligned(&b, table)
	b.WriteString("\nlist ranking is EREW — zero concurrent writes — so its time is the\n" +
		"per-round synchronization cost plus the data movement of a real kernel.\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ListRankJSONRows converts the sweep to the machine-readable rows.
func ListRankJSONRows(rows []ListRankRow) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:   "listrank",
			Kernel:  "listrank",
			Exec:    r.Exec,
			Threads: r.Threads,
			XLabel:  "n",
			X:       r.N,
			NsOp:    r.NsOp,
		})
	}
	return out
}
