package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"crcwpram/internal/alg/listrank"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"
)

// KernelOpRow reports the selection-protocol memory operations one method
// executed over one full kernel run, plus the structural shape of that run
// as seen by the trace backend: the metrics shards attribute the claims,
// the trace attributes the rounds and barriers they were spread over. Both
// instruments observe the *same* deterministic replay.
type KernelOpRow struct {
	Kernel   string
	Method   cw.Method
	Loads    uint64
	RMWs     uint64
	Wins     uint64
	Steps    uint64 // work-shared loops in the traced run
	Barriers uint64 // synchronization points in the traced run
}

// KernelTraceRow is one kernel's structural cost under the trace backend:
// the numbers a timed backend would have to pay for, independent of the
// concurrent-write method (all methods share the round structure).
type KernelTraceRow struct {
	Kernel    string
	P         int
	Steps     uint64
	Barriers  uint64
	Singles   uint64
	Rounds    uint32 // CAS-LT round ids drawn with NextRound
	IterMax   uint64 // busiest logical worker (unit-cost critical path)
	IterTotal uint64 // summed iterations over all logical workers
}

// kernelOpMethods are the methods whose operation mix the paper's Section 6
// analyses.
var kernelOpMethods = []cw.Method{cw.CASLT, cw.GatekeeperChecked, cw.Gatekeeper}

// methodOps maps the claims of a metrics snapshot to method's memory
// operations: every executed attempt is one atomic RMW and wins are wins.
// The pre-checked methods (CAS-LT and the checked gatekeeper) make one
// plain load per claim, skipped or not; the plain gatekeeper makes none.
func methodOps(method cw.Method, s metrics.Snapshot) (loads, rmws, wins uint64) {
	if method != cw.Gatekeeper {
		loads = s.PrecheckSkips + s.CASAttempts
	}
	return loads, s.CASAttempts, s.CASWins
}

// traceRow flattens a kernel's TraceStats into a KernelTraceRow.
func traceRow(kernel string, st *exec.TraceStats) KernelTraceRow {
	if st == nil {
		panic("bench: kernel ran under the trace backend but recorded no trace")
	}
	return KernelTraceRow{
		Kernel:    kernel,
		P:         st.P,
		Steps:     uint64(st.Steps),
		Barriers:  uint64(st.Barriers),
		Singles:   uint64(st.Singles),
		Rounds:    st.Rounds,
		IterMax:   st.MaxIters(),
		IterTotal: st.TotalIters(),
	}
}

// countWorkload builds the standard counting-sweep workload for a
// registered kernel: a random graph of the requested size (undirected when
// the kernel demands symmetry), a chain of `vertices` nodes for the EREW
// ranker, or the fixed 512-element list for maxfind (its work is N², so the
// BFS-sized n would swamp the replay for no extra information).
func countWorkload(d *kernel.Descriptor, vertices, edges int, seed int64) kernel.Workload {
	switch d.Input {
	case kernel.InputList:
		const maxfindN = 512
		return kernel.Workload{List: randomList(maxfindN, seed), Seed: uint64(seed)}
	case kernel.InputChain:
		return kernel.Workload{Next: listrank.RandomList(vertices, seed), Seed: uint64(seed)}
	default:
		g := graph.ConnectedRandom(vertices, edges, seed)
		if d.Symmetric {
			g = graph.RandomUndirected(vertices, edges, seed)
		}
		return kernel.Workload{Graph: g, Seed: uint64(seed)}
	}
}

// countCells is the concurrent-write cell count a workload exposes to the
// contention probe: one per vertex or list element, none for the EREW
// chain.
func countCells(d *kernel.Descriptor, w kernel.Workload) int {
	switch d.Input {
	case kernel.InputList:
		return len(w.List)
	case kernel.InputChain:
		return 0
	default:
		return w.Graph.NumVertices()
	}
}

// KernelOpCounts replays every registered kernel once per Section 6
// method it supports under the trace backend, on a metrics machine, and
// reports the claims the replay recorded as memory operations — the
// whole-kernel extension of the single-cell Section 6 experiment —
// alongside the step/barrier structure of the traced run. Results are
// validated before being reported.
func KernelOpCounts(reg *kernel.Registry, threads, vertices, edges int, seed int64) []KernelOpRow {
	m := machine.New(threads, machine.WithMetrics())
	defer m.Close()
	var rows []KernelOpRow
	for _, d := range reg.All() {
		inst := d.New(m, countWorkload(d, vertices, edges, seed))
		for _, method := range kernelOpMethods {
			if !d.SupportsMethod(method) {
				continue
			}
			s := kernel.Settings{Exec: machine.ExecTrace, Method: method}
			inst.Prepare(s)
			m.Metrics().Reset()
			inst.Run(s)
			if err := inst.Validate(); err != nil {
				panic(fmt.Sprintf("bench: kernelops %s %v: %v", d.Name, method, err))
			}
			st := traceRow(d.Name, inst.Trace())
			loads, rmws, wins := methodOps(method, m.Snapshot())
			rows = append(rows, KernelOpRow{
				Kernel: d.Name, Method: method,
				Loads: loads, RMWs: rmws, Wins: wins,
				Steps: st.Steps, Barriers: st.Barriers,
			})
		}
	}
	return rows
}

// KernelTraceCounts replays every registered kernel once under the trace
// backend with P logical workers and reports each run's structural cost.
// Every result is validated before its trace is reported. A kernel added by
// a single registration shows up here with no other edits.
func KernelTraceCounts(reg *kernel.Registry, threads, vertices, edges int, seed int64) []KernelTraceRow {
	m := machine.New(threads, machine.WithExec(machine.ExecTrace))
	defer m.Close()
	var rows []KernelTraceRow
	for _, d := range reg.All() {
		w := countWorkload(d, vertices, edges, seed)
		inst := d.New(m, w)
		s := kernel.Settings{Exec: machine.ExecTrace, Method: cw.CASLT}
		if len(d.Methods) > 0 && !d.SupportsMethod(cw.CASLT) {
			s.Method = d.Methods[0]
		}
		inst.Prepare(s)
		inst.Run(s)
		if err := inst.Validate(); err != nil {
			panic(fmt.Sprintf("bench: kerneltrace %s: %v", d.Name, err))
		}
		rows = append(rows, traceRow(d.Name, inst.Trace()))
	}
	return rows
}

// FormatKernelOps renders the per-kernel operation counts as an aligned
// table.
func FormatKernelOps(w io.Writer, vertices, edges int, rows []KernelOpRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== kernel-ops: selection-protocol operations per full run (n=%d, m=%d) ==\n", vertices, edges)
	out := [][]string{{"kernel", "method", "loads", "atomic RMWs", "wins", "steps", "barriers"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Kernel,
			r.Method.String(),
			strconv.FormatUint(r.Loads, 10),
			strconv.FormatUint(r.RMWs, 10),
			strconv.FormatUint(r.Wins, 10),
			strconv.FormatUint(r.Steps, 10),
			strconv.FormatUint(r.Barriers, 10),
		})
	}
	writeAligned(&b, out)
	b.WriteString("\nwins are identical across methods (same algorithm, one winner per\n" +
		"target per round); the gatekeeper turns every attempt into an atomic RMW,\n" +
		"the pre-checked variants turn almost all of them into plain loads.\n" +
		"the counts are the claims the trace backend's deterministic replay records\n" +
		"on the metrics shards; steps/barriers, from the same replay, are the\n" +
		"synchronization structure every method pays for identically.\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// FormatKernelTraces renders the per-kernel structural costs as an aligned
// table.
func FormatKernelTraces(w io.Writer, vertices, edges int, rows []KernelTraceRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== kernel-trace: structural cost per full run (n=%d, m=%d; maxfind n=512) ==\n", vertices, edges)
	out := [][]string{{"kernel", "p", "steps", "barriers", "singles", "cw rounds", "iter max", "iter total"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Kernel,
			strconv.Itoa(r.P),
			strconv.FormatUint(r.Steps, 10),
			strconv.FormatUint(r.Barriers, 10),
			strconv.FormatUint(r.Singles, 10),
			strconv.FormatUint(uint64(r.Rounds), 10),
			strconv.FormatUint(r.IterMax, 10),
			strconv.FormatUint(r.IterTotal, 10),
		})
	}
	writeAligned(&b, out)
	b.WriteString("\nsteps are work-shared loops; barriers are the synchronizations a timed\n" +
		"backend would execute (team: one sense barrier each).\n" +
		"cw rounds are the round ids a run draws from the machine's counter\n" +
		"(NextRound): one per BFS level, hook phase or iteration; listrank's\n" +
		"EREW jumps draw none.\n" +
		"iter max / p vs iter total / p² is the unit-cost load imbalance.\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// KernelOpsJSONRows converts the op-count rows to the machine-readable
// trajectory rows. They carry counts rather than a timing, so NsOp stays
// zero and the exec field records the trace backend that produced them.
func KernelOpsJSONRows(rows []KernelOpRow, threads int) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:    "kernelops",
			Kernel:   r.Kernel,
			Method:   r.Method.String(),
			Exec:     machine.ExecTrace.String(),
			Threads:  threads,
			Loads:    r.Loads,
			RMWs:     r.RMWs,
			Wins:     r.Wins,
			Steps:    r.Steps,
			Barriers: r.Barriers,
		})
	}
	return out
}

// KernelTraceJSONRows converts the trace rows to the machine-readable
// trajectory rows.
func KernelTraceJSONRows(rows []KernelTraceRow) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:     "kerneltrace",
			Kernel:    r.Kernel,
			Exec:      machine.ExecTrace.String(),
			Threads:   r.P,
			Steps:     r.Steps,
			Barriers:  r.Barriers,
			Singles:   r.Singles,
			Rounds:    uint64(r.Rounds),
			IterMax:   r.IterMax,
			IterTotal: r.IterTotal,
		})
	}
	return out
}
