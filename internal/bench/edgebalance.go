package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/bench/sweep"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"
)

// The edge-balance sweep is the load-balancing experiment behind the
// -balance axis: the four CAS-LT BFS formulations (full sweep, explicit
// frontier, pure bottom-up, direction-optimizing hybrid) on two
// skewed-degree workloads — an RMAT power-law graph and the star, the
// maximal-straggler input — under both partitioning policies and every
// timed execution mode. Each cell reports the median wall time *and* the
// deterministic work model (see workmodel.go): on a host with fewer cores
// than workers the wall clock cannot see the straggler that vertex
// balancing creates, while WorkCrit/Imbalance expose it exactly.

// ebKernels are the swept BFS formulations, in presentation order.
var ebKernels = []string{"bfs", "bfs-frontier", "bfs-pull", "bfs-hybrid"}

// EdgeBalanceGraph identifies one workload of the sweep.
type EdgeBalanceGraph struct {
	Name   string
	Source uint32
	Stats  graph.Stats
}

// EdgeBalanceRow is one measured cell.
type EdgeBalanceRow struct {
	Graph   string
	Kernel  string
	Balance graph.Balance
	Exec    string
	Threads int
	NsOp    float64
	Model   WorkModel
}

// bfsInput is one BFS sweep's graph, with the name its rows carry and the
// vertex its traversals start from.
type bfsInput struct {
	name   string
	g      *graph.Graph
	source uint32
}

// edgeBalanceInputs builds the edge-balance sweep's workloads. RMAT: BFS
// from vertex 0, the likeliest hub under the canonical probabilities.
// Star: BFS from a leaf, so the entire level-1 frontier is the hub — the
// worst straggler a vertex partition can produce.
func edgeBalanceInputs(cfg Config) []bfsInput {
	return []bfsInput{
		{fmt.Sprintf("rmat%d", cfg.EBScale),
			graph.RMAT(cfg.EBScale, 8<<cfg.EBScale, 0.57, 0.19, 0.19, cfg.Seed), 0},
		{fmt.Sprintf("star%d", cfg.EBStar), graph.Star(cfg.EBStar), 1},
	}
}

// EdgeBalance runs the sweep: for each workload × balance × kernel ×
// execution mode, the median wall time over cfg.Reps runs (validated once
// per cell, outside the timed region, by the registered kernel's own
// oracle) plus the replayed work model. The workload sizes come from
// cfg.EBScale / cfg.EBStar; the worker count is cfg.Threads. Dispatch goes
// through the kernel registry: ebKernels is pure configuration.
func EdgeBalance(cfg Config, execs []machine.Exec) ([]EdgeBalanceGraph, []EdgeBalanceRow, error) {
	cfg = cfg.withDefaults()
	if len(execs) == 0 {
		execs = machine.Execs
	}
	run := cfg.newRunner()
	defer run.Close()
	m := run.Machine(sweep.MachineKey{Threads: cfg.Threads})
	var infos []EdgeBalanceGraph
	var rows []EdgeBalanceRow
	for _, wl := range edgeBalanceInputs(cfg) {
		infos = append(infos, EdgeBalanceGraph{
			Name:   wl.name,
			Source: wl.source,
			Stats:  graph.ComputeStats(wl.g),
		})
		seq := bfs.Sequential(wl.g, wl.source)
		model := newBFSModel(wl.g, wl.source, cfg.Threads, seq)
		w := &kernel.Workload{Graph: wl.g, Source: wl.source}
		for _, bal := range graph.Balances {
			models := make(map[string]WorkModel, len(ebKernels))
			for _, kname := range ebKernels {
				models[kname] = model.For(kname, bal)
			}
			for _, e := range execs {
				for _, kname := range ebKernels {
					d, ok := kernel.Lookup(kname)
					if !ok {
						return nil, nil, fmt.Errorf("edgebalance: unregistered kernel %s", kname)
					}
					inst := run.Instance(d, m, w)
					cell, err := run.Timed(inst, kernel.Settings{
						Exec: e, Method: cw.CASLT, Balance: bal,
					})
					if err != nil {
						return nil, nil, fmt.Errorf("edgebalance %s %s %s %s: %w",
							wl.name, kname, bal, e, err)
					}
					rows = append(rows, EdgeBalanceRow{
						Graph:   wl.name,
						Kernel:  kname,
						Balance: bal,
						Exec:    e.String(),
						Threads: cfg.Threads,
						NsOp:    float64(cell.Median.Nanoseconds()),
						Model:   models[kname],
					})
					cfg.logf("edgebalance %s kernel=%s bal=%s exec=%s median=%v imbal=%.2f\n",
						wl.name, kname, bal, e, cell.Median, models[kname].Imbalance())
				}
			}
		}
	}
	return infos, rows, nil
}

// FormatEdgeBalance renders one table per workload: a (kernel, balance)
// line with each timed execution mode's wall median and the work model's
// critical path, ideal, and imbalance.
func FormatEdgeBalance(w io.Writer, infos []EdgeBalanceGraph, rows []EdgeBalanceRow) error {
	var b strings.Builder
	ms := func(ns float64) string {
		return strconv.FormatFloat(ns/1e6, 'f', 3, 64)
	}
	for gi, info := range infos {
		if gi > 0 {
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "== edgebalance: %s source=%d ==\n", info.Name, info.Source)
		fmt.Fprintf(&b, "   %s\n", info.Stats)
		header := []string{"kernel", "balance"}
		for _, e := range machine.Execs {
			header = append(header, e.String()+"(ms)")
		}
		table := [][]string{append(header, "crit", "ideal", "imbal", "depth")}
		for _, kernel := range ebKernels {
			for _, bal := range graph.Balances {
				wall := map[string]float64{}
				var m WorkModel
				found := false
				for _, r := range rows {
					if r.Graph != info.Name || r.Kernel != kernel || r.Balance != bal {
						continue
					}
					found = true
					m = r.Model
					wall[r.Exec] = r.NsOp
				}
				if !found {
					continue
				}
				line := []string{kernel, bal.String()}
				for _, e := range machine.Execs {
					line = append(line, ms(wall[e.String()]))
				}
				table = append(table, append(line,
					strconv.FormatUint(m.Crit, 10),
					strconv.FormatUint(m.Ideal, 10),
					strconv.FormatFloat(m.Imbalance(), 'f', 2, 64),
					strconv.Itoa(m.Depth),
				))
			}
		}
		writeAligned(&b, table)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// EdgeBalanceJSONRows converts the sweep to the machine-readable rows.
func EdgeBalanceJSONRows(rows []EdgeBalanceRow) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:     "edgebalance",
			Kernel:    r.Kernel,
			Method:    "caslt",
			Exec:      r.Exec,
			Threads:   r.Threads,
			NsOp:      r.NsOp,
			Graph:     r.Graph,
			Balance:   r.Balance.String(),
			Depth:     r.Model.Depth,
			WorkTotal: r.Model.Total,
			WorkCrit:  r.Model.Crit,
			WorkIdeal: r.Model.Ideal,
			Imbalance: r.Model.Imbalance(),
		})
	}
	return out
}
