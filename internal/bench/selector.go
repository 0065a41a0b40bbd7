package bench

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"crcwpram/internal/bench/sweep"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"
	"crcwpram/internal/sched"
)

// SelectorResult reports one -run cell: a single registered kernel executed
// under one full axis assignment.
type SelectorResult struct {
	Kernel   string
	Selector kernel.Selector
	Threads  int
	Policy   string
	Timed    bool
	Median   time.Duration
	Out      kernel.Outcome
	Trace    *exec.TraceStats
}

// RunSelector parses a -run selector string against the registry, builds
// the standard workload for the kernel, applies the assignment, and
// executes it once: timed (prepare untimed, median of cfg.Reps runs,
// validation outside the timed region) for the timed backends, or as a
// counted trace replay for exec=trace. Unset axes keep the sweep defaults
// (team exec, CAS-LT where supported, block policy, cfg.Threads workers).
func RunSelector(reg *kernel.Registry, cfg Config, selStr string) (*SelectorResult, error) {
	cfg = cfg.withDefaults()
	d, sel, err := reg.ParseSelector(selStr)
	if err != nil {
		return nil, err
	}
	threads := cfg.Threads
	if v, ok := sel[kernel.AxisThreads]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("selector: threads=%q is not a positive integer", v)
		}
		threads = n
	}
	pol := cfg.Policy
	if v, ok := sel[kernel.AxisPolicy]; ok {
		pol, _ = sched.ParsePolicy(v) // membership validated by ParseSelector
	}
	s, err := sweep.ParseSettings(sel)
	if err != nil {
		return nil, err
	}
	if _, ok := sel[kernel.AxisMethod]; !ok && len(d.Methods) > 0 {
		// Default the method axis the way the sweeps do: CAS-LT when the
		// kernel supports it, its first registered method otherwise.
		s.Method = d.Methods[0]
		if d.SupportsMethod(s.Method) {
			for _, m := range d.Methods {
				if m.String() == "caslt" {
					s.Method = m
				}
			}
		}
	}
	if d.Stealable && pol == sched.Stealing {
		s.Steal = kernel.StealOn
	}
	w := countWorkload(d, cfg.BFSVertices, cfg.BFSEdges, cfg.Seed)
	if v, ok := sel[kernel.AxisRelabel]; ok {
		mode, _ := graph.ParseRelabel(v)
		if mode != graph.RelabelNone {
			rl := graph.Relabel(w.Graph, mode)
			w.Graph, w.Source = rl.G, rl.Perm[w.Source]
		}
	}
	run := cfg.newRunner()
	defer run.Close()
	m := run.Machine(sweep.MachineKey{Threads: threads, Policy: pol})
	inst := run.Instance(d, m, &w)
	res := &SelectorResult{
		Kernel:   d.Name,
		Selector: sel,
		Threads:  threads,
		Policy:   pol.String(),
	}
	if s.Exec == machine.ExecTrace {
		_, tr, err := run.Counted(inst, s)
		if err != nil {
			return nil, fmt.Errorf("run %s: %w", d.Name, err)
		}
		res.Trace = tr
		return res, nil
	}
	cell, err := run.Timed(inst, s)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", d.Name, err)
	}
	res.Timed = true
	res.Median = cell.Median
	res.Out = cell.Out
	return res, nil
}

// FormatSelector renders one -run result.
func FormatSelector(w io.Writer, r *SelectorResult) error {
	var b strings.Builder
	keys := make([]string, 0, len(r.Selector))
	for k := range r.Selector {
		if k != kernel.AxisKernel {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+r.Selector[k])
	}
	fmt.Fprintf(&b, "== run: %s (%s; p=%d, policy=%s) ==\n",
		r.Kernel, strings.Join(parts, " "), r.Threads, r.Policy)
	switch {
	case r.Timed:
		fmt.Fprintf(&b, "median %v per run\n", r.Median)
		if r.Out.Depth > 0 {
			fmt.Fprintf(&b, "depth %d\n", r.Out.Depth)
		}
	case r.Trace != nil:
		fmt.Fprintf(&b, "trace replay: %d steps, %d barriers, %d singles, %d cw rounds, iters max/total %d/%d\n",
			r.Trace.Steps, r.Trace.Barriers, r.Trace.Singles, r.Trace.Rounds,
			r.Trace.MaxIters(), r.Trace.TotalIters())
	}
	_, err := io.WriteString(w, b.String())
	return err
}
