package kernel

import (
	"fmt"
	"sort"
	"strings"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

// Axis is one sweepable dimension with its legal values in canonical
// order. The value tables below are THE accept sets: the sweeps expand
// them, -run parses against them, the fuzz tests hold the parsers to
// them, and the JSON validator rejects rows outside them.
type Axis struct {
	Name   string
	Values []string
}

// Canonical axis names, as they appear in JSON rows, -run selectors, and
// -list output.
const (
	AxisKernel  = "kernel"
	AxisMethod  = "method"
	AxisExec    = "exec"
	AxisPolicy  = "policy"
	AxisBalance = "balance"
	AxisRepr    = "repr"
	AxisRelabel = "relabel"
	AxisThreads = "threads"
)

// MethodValues lists every concurrent-write method name, in the cw
// package's presentation order.
func MethodValues() []string {
	out := make([]string, len(cw.Methods))
	for i, m := range cw.Methods {
		out[i] = m.String()
	}
	return out
}

// ExecValues lists every execution backend including the untimed trace
// replay (the differential engine replays it; the timed sweeps restrict
// themselves to TimedExecValues).
func ExecValues() []string {
	out := make([]string, 0, len(machine.Execs)+1)
	for _, e := range machine.Execs {
		out = append(out, e.String())
	}
	return append(out, machine.ExecTrace.String())
}

// TimedExecValues lists the backends whose wall time is meaningful.
func TimedExecValues() []string {
	out := make([]string, len(machine.Execs))
	for i, e := range machine.Execs {
		out[i] = e.String()
	}
	return out
}

// PolicyValues lists every scheduling policy.
func PolicyValues() []string {
	out := make([]string, len(sched.Policies))
	for i, p := range sched.Policies {
		out[i] = p.String()
	}
	return out
}

// BalanceValues lists the work-partitioning modes.
func BalanceValues() []string {
	out := make([]string, len(graph.Balances))
	for i, b := range graph.Balances {
		out[i] = b.String()
	}
	return out
}

// ReprValues lists the membership representations. "word" is the plain
// one-word-per-cell layout; "bitmap" the bit-packed cw.BitArray layout.
func ReprValues() []string { return []string{"word", "bitmap"} }

// RelabelValues lists the CSR relabeling modes.
func RelabelValues() []string {
	out := make([]string, len(graph.RelabelModes))
	for i, m := range graph.RelabelModes {
		out[i] = m.String()
	}
	return out
}

// AxisValues returns the global legal-value table for a named axis (the
// union across kernels; a kernel's own Axes() may restrict it further).
// The threads axis has no enumerable values and returns (nil, true).
func AxisValues(name string) ([]string, bool) {
	switch name {
	case AxisMethod:
		return MethodValues(), true
	case AxisExec:
		return ExecValues(), true
	case AxisPolicy:
		return PolicyValues(), true
	case AxisBalance:
		return BalanceValues(), true
	case AxisRepr:
		return ReprValues(), true
	case AxisRelabel:
		return RelabelValues(), true
	case AxisThreads:
		return nil, true
	}
	return nil, false
}

// ValidAxisValue reports whether value is legal for the named axis. It is
// the single membership predicate the JSON validator and the -run parser
// share, and the property the parser fuzz tests check the cw / machine /
// sched / graph parsers against: each package's Parse accepts exactly
// this set for its axis.
func ValidAxisValue(axis, value string) bool {
	vals, ok := AxisValues(axis)
	if !ok || vals == nil {
		return false
	}
	for _, v := range vals {
		if v == value {
			return true
		}
	}
	return false
}

// Selector is one parsed -run assignment set: axis name -> value.
type Selector map[string]string

// ParseSelector parses a "kernel=bfs,method=caslt,exec=team" string
// against the registry: the kernel key is required and must be
// registered, every other key must be an axis the kernel supports with a
// value on that axis (threads excepted, validated numerically by the
// caller).
func (r *Registry) ParseSelector(s string) (*Descriptor, Selector, error) {
	sel := Selector{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, nil, fmt.Errorf("selector %q: want axis=value", part)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if _, dup := sel[k]; dup {
			return nil, nil, fmt.Errorf("selector: duplicate axis %q", k)
		}
		sel[k] = v
	}
	name, ok := sel[AxisKernel]
	if !ok {
		return nil, nil, fmt.Errorf("selector: missing kernel= (registered: %s)",
			strings.Join(r.Names(), ", "))
	}
	d, ok := r.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("selector: unknown kernel %q (registered: %s)",
			name, strings.Join(r.Names(), ", "))
	}
	axes := d.Axes()
	keys := make([]string, 0, len(sel))
	for k := range sel {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k == AxisKernel || k == AxisThreads {
			continue
		}
		var ax *Axis
		for i := range axes {
			if axes[i].Name == k {
				ax = &axes[i]
				break
			}
		}
		if ax == nil {
			return nil, nil, fmt.Errorf("kernel %s has no %s axis", name, k)
		}
		legal := false
		for _, v := range ax.Values {
			if v == sel[k] {
				legal = true
				break
			}
		}
		if !legal {
			return nil, nil, fmt.Errorf("kernel %s: %s=%q not in {%s}",
				name, k, sel[k], strings.Join(ax.Values, ", "))
		}
	}
	return d, sel, nil
}
