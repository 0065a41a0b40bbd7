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
	"crcwpram/internal/sched"
)

// The stealing sweep is the scheduling-policy experiment behind -policy:
// the two frontier-carrying CAS-LT BFS formulations (explicit frontier and
// direction-optimizing hybrid) on a hub-skewed RMAT graph versus a
// degree-uniform random graph, across every partitioning policy and a
// worker-count sweep. Each cell reports the median wall time, the live
// steal counters from the metrics layer (chunks claimed locally, successful
// steals, failed steal attempts — nonzero only under the stealing policy),
// and the deterministic scheduling model (stealmodel.go): on a host with
// fewer cores than workers the wall clock cannot see the straggler a
// coarse-chunked policy leaves behind a hub, while the modelled critical
// path exposes it exactly — stealing's fine chunks and cheap local claims
// beat the shared cursor precisely where degrees are skewed, and cost
// nothing where they are not.

// stealKernels are the swept BFS formulations. Both carry an explicit
// frontier, the loop shape whose per-index cost varies with vertex degree
// — the workload stealing exists for.
var stealKernels = []string{"bfs-frontier", "bfs-hybrid"}

// StealingRow is one measured cell of the sweep.
type StealingRow struct {
	Graph   string
	Kernel  string
	Policy  sched.Policy
	Exec    string
	Threads int
	NsOp    float64
	Model   WorkModel
	// Aggregated over the cell's cfg.Reps measured runs (and their untimed
	// Prepare sweeps, which also run policy-partitioned machine loops).
	ChunksLocal uint64
	Steals      uint64
	StealFails  uint64
}

// stealingInputs builds the stealing sweep's workloads, both traversed
// from vertex 0. RMAT at density 4: hubs of degree in the thousands
// against a mean of 8 — the chunk a coarse policy strands a hub in
// dominates its level. The uniform graph of the same size is the negative
// control: every chunk costs the same, so no policy should beat block
// there.
func stealingInputs(cfg Config) []bfsInput {
	return []bfsInput{
		{fmt.Sprintf("rmat%d", cfg.StealScale),
			graph.RMAT(cfg.StealScale, 4<<cfg.StealScale, 0.57, 0.19, 0.19, cfg.Seed), 0},
		{fmt.Sprintf("uniform%d", cfg.StealScale),
			graph.ConnectedRandom(1<<cfg.StealScale, 4<<cfg.StealScale, cfg.Seed), 0},
	}
}

// Stealing runs the sweep: for each workload × worker count × policy ×
// kernel, the median wall time over cfg.Reps runs (validated once per
// cell), the cell's aggregated steal counters, and the scheduling model.
// The workload sizes come from cfg.StealScale; the worker counts from
// cfg.StealThreads. Kernels are pinned to the cell's policy (stealing
// relaxation exactly when the machine policy is stealing), overriding
// their degree-skew default — the sweep isolates the policy axis.
func Stealing(cfg Config, exec machine.Exec) ([]StealingRow, error) {
	cfg = cfg.withDefaults()
	run := cfg.newRunner()
	defer run.Close()
	var rows []StealingRow
	for _, wl := range stealingInputs(cfg) {
		seq := bfs.Sequential(wl.g, 0)
		w := &kernel.Workload{Graph: wl.g}
		for _, p := range cfg.StealThreads {
			model := newBFSModel(wl.g, 0, p, seq)
			for _, pol := range sched.Policies {
				m := run.Machine(sweep.MachineKey{Threads: p, Policy: pol, Metrics: true})
				// Kernels are pinned to the cell's policy: stealing
				// relaxation exactly when the machine policy is stealing.
				steal := kernel.StealOff
				if pol == sched.Stealing {
					steal = kernel.StealOn
				}
				for _, kname := range stealKernels {
					d, ok := kernel.Lookup(kname)
					if !ok {
						return nil, fmt.Errorf("stealing: unregistered kernel %s", kname)
					}
					inst := run.Instance(d, m, w)
					m.Metrics().Reset()
					cell, err := run.Timed(inst, kernel.Settings{
						Exec: exec, Method: cw.CASLT, Steal: steal,
					})
					if err != nil {
						return nil, fmt.Errorf("stealing %s %s %s p=%d: %w",
							wl.name, kname, pol, p, err)
					}
					snap := m.Snapshot()
					rows = append(rows, StealingRow{
						Graph:       wl.name,
						Kernel:      kname,
						Policy:      pol,
						Exec:        exec.String(),
						Threads:     p,
						NsOp:        float64(cell.Median.Nanoseconds()),
						Model:       model.ForSched(kname, pol, m.Chunk()),
						ChunksLocal: snap.ChunksLocal,
						Steals:      snap.Steals,
						StealFails:  snap.StealFails,
					})
					cfg.logf("stealing %s kernel=%s policy=%s p=%d median=%v crit=%d steals=%d\n",
						wl.name, kname, pol, p, cell.Median, rows[len(rows)-1].Model.Crit, snap.Steals)
				}
			}
		}
	}
	return rows, nil
}

// FormatStealing renders the sweep as one table per workload: a (kernel,
// policy, P) line with the wall median, the modelled critical path /
// ideal / imbalance, and the steal counters.
func FormatStealing(w io.Writer, rows []StealingRow) error {
	var b strings.Builder
	ms := func(ns float64) string {
		return strconv.FormatFloat(ns/1e6, 'f', 3, 64)
	}
	var graphs []string
	for _, r := range rows {
		if len(graphs) == 0 || graphs[len(graphs)-1] != r.Graph {
			graphs = append(graphs, r.Graph)
		}
	}
	for gi, name := range graphs {
		if gi > 0 {
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "== stealing: %s ==\n", name)
		table := [][]string{{"kernel", "policy", "p", "wall(ms)", "crit", "ideal", "imbal", "local", "steals", "fails"}}
		for _, r := range rows {
			if r.Graph != name {
				continue
			}
			table = append(table, []string{
				r.Kernel,
				r.Policy.String(),
				strconv.Itoa(r.Threads),
				ms(r.NsOp),
				strconv.FormatUint(r.Model.Crit, 10),
				strconv.FormatUint(r.Model.Ideal, 10),
				strconv.FormatFloat(r.Model.Imbalance(), 'f', 2, 64),
				strconv.FormatUint(r.ChunksLocal, 10),
				strconv.FormatUint(r.Steals, 10),
				strconv.FormatUint(r.StealFails, 10),
			})
		}
		writeAligned(&b, table)
	}
	b.WriteString("\ncrit/ideal/imbal are the deterministic scheduling model (one core per\n" +
		"worker; chunk claims charged per policy), not wall time: on an\n" +
		"oversubscribed host only the model can attribute a delta to the\n" +
		"policy. local/steals/fails are live deque counters and are zero by\n" +
		"construction for every policy but stealing.\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// StealingJSONRows converts the sweep to the machine-readable rows.
func StealingJSONRows(rows []StealingRow) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:       "stealing",
			Kernel:      r.Kernel,
			Method:      "caslt",
			Exec:        r.Exec,
			Threads:     r.Threads,
			NsOp:        r.NsOp,
			Graph:       r.Graph,
			Policy:      r.Policy.String(),
			Depth:       r.Model.Depth,
			WorkTotal:   r.Model.Total,
			WorkCrit:    r.Model.Crit,
			WorkIdeal:   r.Model.Ideal,
			Imbalance:   r.Model.Imbalance(),
			ChunksLocal: r.ChunksLocal,
			Steals:      r.Steals,
			StealFails:  r.StealFails,
		})
	}
	return out
}
