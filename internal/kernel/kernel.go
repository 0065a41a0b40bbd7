// Package kernel is the registry of the suite's PRAM kernels: one
// Descriptor per kernel formulation (BFS sweep, BFS frontier, random-mate
// CC, ...) declaring the concurrent-write methods it supports, the axes it
// can be swept over (execution backend, scheduling policy, membership
// representation, work partitioning, CSR relabeling) with their legal
// values, how to instantiate it on a machine and workload, and how to
// project a validated result to a deterministic byte fingerprint.
//
// The registry is the single registration point the rest of the repo
// derives from:
//
//   - the bench sweeps (internal/bench + internal/bench/sweep) expand axis
//     products into runs without hand-wiring each kernel;
//   - the differential engine (Differential, driven by the tests in
//     internal/integration and by crcwbench -chaos) byte-compares every
//     registered kernel's runs across backends, policies,
//     representations, balances, relabelings, observers and chaos seeds
//     against a bare-machine reference;
//   - crcwbench's -list and -run flags introspect and select kernels
//     generically;
//   - the JSON validator checks row axis values against the same legal
//     sets (axes.go), so the accept/reject sets cannot drift.
//
// Adding a kernel (or a method alias of an existing one) is a single
// Register call: it then appears in the sweeps, in -list, and in the
// differential engine with no other edits (see the extension test in
// internal/integration).
package kernel

import (
	"fmt"
	"sort"
	"sync"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

// Input classifies the workload a kernel consumes; the harnesses use it to
// build standard fixed-seed inputs without per-kernel wiring.
type Input int

const (
	// InputGraph kernels traverse Workload.Graph from Workload.Source.
	InputGraph Input = iota
	// InputList kernels consume Workload.List (maxfind).
	InputList
	// InputChain kernels consume Workload.Next, a successor-pointer list
	// (list ranking).
	InputChain
)

// Contention classifies a kernel for the live-contention sweep.
type Contention int

const (
	// ContentionNone kernels are skipped by the contention sweep: their
	// claim sites are not instrumented end to end (e.g. the exclusive-write
	// pull formulations, whose push-free rounds execute no guarded CW).
	ContentionNone Contention = iota
	// ContentionGuarded kernels run with the per-cell probe attached and,
	// under CAS-LT, have the paper's <=P executed-RMWs-per-cell-per-round
	// bound enforced (see ClaimBound).
	ContentionGuarded
	// ContentionEREW kernels are the negative control: they execute no
	// concurrent writes, so their contention counters must stay zero.
	ContentionEREW
	// ContentionCAS kernels guard their writes with one-shot "claim if
	// unvisited" claims (frontier style) rather than the round-structured
	// protocol of the cw layer that the contention sweep's row discipline
	// requires, so the sweep skips them and ClaimBound sets them no bound.
	ContentionCAS
)

// Workload is one prepared kernel input. Which fields are populated
// follows the descriptor's Input kind.
type Workload struct {
	Graph  *graph.Graph
	Source uint32
	List   []uint32
	Next   []uint32
	// Seed feeds the randomized kernels (random-mate CC, MIS, matching).
	Seed uint64
}

// StealMode selects the kernel-level stealing opt-in for one run.
type StealMode int

const (
	// StealDefault leaves the kernel's own degree-skew default in place.
	StealDefault StealMode = iota
	// StealOn pins the opt-in on (the policy sweeps pin it to the machine
	// policy so the axis is isolated).
	StealOn
	// StealOff pins the opt-in off.
	StealOff
)

// Settings is one fully resolved axis assignment for a run. The machine
// axes (worker count, scheduling policy, metrics) live on the machine the
// instance was built on; Settings carries the per-run kernel axes.
type Settings struct {
	Exec    machine.Exec
	Method  cw.Method
	Bitmap  bool
	Balance graph.Balance
	Steal   StealMode
}

// Outcome is the deterministic projection of one run: the per-element
// result vector plus the BFS depth (zero elsewhere). A kernel whose result
// is only deterministic up to the validator at high worker counts still
// returns its vector; Descriptor.DetP tells comparers when to trust it.
type Outcome struct {
	Vector []uint32
	Depth  int
}

// Instance is a kernel bound to one machine and workload. Prepare applies
// the run's axis settings and re-initializes state untimed (the paper's
// protocol excludes initialization from timing — representation and
// balance switches allocate there, not in the timed region), Run executes
// one full kernel run under the same settings without validating (so timed
// regions stay pure), and Validate checks the most recent Run's result
// against the kernel's oracle.
type Instance interface {
	Prepare(s Settings)
	Run(s Settings) Outcome
	Validate() error
	// Trace returns the structural trace of the most recent trace-backend
	// run (nil after a timed run).
	Trace() *exec.TraceStats
}

// ResolverRunner is the optional generic-resolver hook: kernels whose
// selection protocol can be swapped for any cw.Resolver implement it, and
// the chaos sticky-loser leg discovers them by assertion.
type ResolverRunner interface {
	RunResolver(e machine.Exec, r cw.Resolver) Outcome
}

// Descriptor declares one kernel to the registry.
type Descriptor struct {
	// Name identifies the kernel everywhere: sweeps, JSON rows, -run.
	Name string
	// Pkg is the registering algorithm package (completeness tests check
	// every package under internal/alg registers at least one kernel).
	Pkg string
	// Summary is the one-line description -list prints.
	Summary string

	// Methods are the legal -method axis values; empty means the kernel is
	// EREW or has its method fixed by construction (no method axis).
	Methods []cw.Method
	// Bitmap reports that the kernel supports the bit-packed membership
	// representation (the repr axis: word | bitmap).
	Bitmap bool
	// Balanced reports that the kernel honors the work-partitioning axis
	// (balance: vertex | edge).
	Balanced bool
	// Stealable reports that the kernel has a stealing opt-in
	// (SetStealing) for its irregular loops.
	Stealable bool
	// Relabelable marks graph kernels whose Vector is a per-vertex
	// quantity invariant under CSR relabeling (comparable after
	// unpermuting), enabling the relabel axis.
	Relabelable bool

	// Input classifies the workload kind.
	Input Input
	// Symmetric requires an undirected workload graph (bottom-up BFS, CC,
	// MIS, matching).
	Symmetric bool

	// Contention classifies the kernel for the live-contention sweep;
	// ProbeBoundFactor scales the paper's <=P per-cell bound (matching uses
	// 2: its propose and accept arrays share the probe's index space).
	Contention       Contention
	ProbeBoundFactor int

	// Canon canonicalizes Outcome.Vector before byte comparison (e.g. CC
	// partitions are compared up to label renaming); nil is identity.
	Canon func([]uint32) []uint32
	// DetP is the largest worker count at which the projection is
	// deterministic; 0 means always (matching uses 1: at P>1 the
	// arbitrary-write winners legitimately differ and only the validator
	// checks the run).
	DetP int

	// New binds the kernel to a machine and workload.
	New func(m *machine.Machine, w Workload) Instance
}

// MethodNames returns the descriptor's method axis values as strings.
func (d *Descriptor) MethodNames() []string {
	out := make([]string, len(d.Methods))
	for i, m := range d.Methods {
		out[i] = m.String()
	}
	return out
}

// Axes returns the kernel's swept axes with their legal values, in
// canonical presentation order. Every kernel has the exec and policy axes
// (they are machine-level); the rest follow the descriptor's declarations.
func (d *Descriptor) Axes() []Axis {
	var axes []Axis
	if len(d.Methods) > 0 {
		axes = append(axes, Axis{AxisMethod, d.MethodNames()})
	}
	axes = append(axes, Axis{AxisExec, ExecValues()})
	axes = append(axes, Axis{AxisPolicy, PolicyValues()})
	if d.Balanced {
		axes = append(axes, Axis{AxisBalance, BalanceValues()})
	}
	if d.Bitmap {
		axes = append(axes, Axis{AxisRepr, ReprValues()})
	}
	if d.Relabelable {
		axes = append(axes, Axis{AxisRelabel, RelabelValues()})
	}
	return axes
}

// SupportsMethod reports whether m is on the kernel's method axis.
func (d *Descriptor) SupportsMethod(m cw.Method) bool {
	for _, have := range d.Methods {
		if have == m {
			return true
		}
	}
	return false
}

// ClaimBound is the paper's bound on the executed read-modify-writes one
// cell absorbs in one round of a method's run at p workers: p, scaled by
// ProbeBoundFactor, for a CAS-LT run of a ContentionGuarded kernel. Every
// other run is unbounded, reported as 0.
func (d *Descriptor) ClaimBound(method cw.Method, p int) uint64 {
	if method != cw.CASLT || d.Contention != ContentionGuarded {
		return 0
	}
	return uint64(max(d.ProbeBoundFactor, 1)) * uint64(p)
}

// Projection flattens a validated outcome to the comparable byte
// fingerprint: the canonicalized vector little-endian plus the depth. A
// nil vector projects to nil (no deterministic projection).
func (d *Descriptor) Projection(o Outcome) []byte {
	if o.Vector == nil {
		return nil
	}
	v := o.Vector
	if d.Canon != nil {
		v = d.Canon(v)
	}
	out := make([]byte, 0, 4*len(v)+4)
	for _, x := range v {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return append(out, byte(o.Depth), byte(o.Depth>>8), byte(o.Depth>>16), byte(o.Depth>>24))
}

// Deterministic reports whether the projection is byte-comparable at
// worker count p.
func (d *Descriptor) Deterministic(p int) bool {
	return d.DetP == 0 || p <= d.DetP
}

// CanonicalPartition renames component labels to the smallest vertex index
// of each class, making partitions comparable byte-for-byte regardless of
// which hook winners produced the labels.
func CanonicalPartition(labels []uint32) []uint32 {
	first := make(map[uint32]uint32, 16)
	out := make([]uint32, len(labels))
	for v, l := range labels {
		if _, ok := first[l]; !ok {
			first[l] = uint32(v)
		}
		out[v] = first[l]
	}
	return out
}

// Registry holds descriptors by name. The package-level Default registry
// is what the alg packages register into at init time; tests build private
// registries to exercise extension without polluting the suite.
type Registry struct {
	m map[string]*Descriptor

	// mu guards refs, the reference projections Differential has computed
	// for the registered kernels.
	mu   sync.Mutex
	refs map[refKey]map[cw.Method][]byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: map[string]*Descriptor{}, refs: map[refKey]map[cw.Method][]byte{}}
}

// Register adds a descriptor; duplicate names and structurally invalid
// descriptors are rejected.
func (r *Registry) Register(d Descriptor) error {
	switch {
	case d.Name == "":
		return fmt.Errorf("kernel: descriptor without a name")
	case d.Pkg == "":
		return fmt.Errorf("kernel %s: descriptor without a package", d.Name)
	case d.New == nil:
		return fmt.Errorf("kernel %s: descriptor without a constructor", d.Name)
	}
	if _, dup := r.m[d.Name]; dup {
		return fmt.Errorf("kernel %s: already registered", d.Name)
	}
	if d.ProbeBoundFactor == 0 {
		d.ProbeBoundFactor = 1
	}
	for _, m := range d.Methods {
		if _, ok := cw.ParseMethod(m.String()); !ok {
			return fmt.Errorf("kernel %s: unknown method %v", d.Name, m)
		}
	}
	r.m[d.Name] = &d
	return nil
}

// MustRegister is Register, panicking on error (init-time use).
func (r *Registry) MustRegister(d Descriptor) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Lookup returns the descriptor registered under name.
func (r *Registry) Lookup(name string) (*Descriptor, bool) {
	d, ok := r.m[name]
	return d, ok
}

// All returns every descriptor sorted by name — the deterministic order
// -list and the differential engine iterate in.
func (r *Registry) All() []*Descriptor {
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Descriptor, len(names))
	for i, n := range names {
		out[i] = r.m[n]
	}
	return out
}

// Names returns the sorted kernel names.
func (r *Registry) Names() []string {
	ds := r.All()
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

// Default is the process-wide registry the algorithm packages register
// into from init.
var Default = NewRegistry()

// Register adds a descriptor to the Default registry, panicking on error.
func Register(d Descriptor) { Default.MustRegister(d) }

// Lookup consults the Default registry.
func Lookup(name string) (*Descriptor, bool) { return Default.Lookup(name) }

// All lists the Default registry sorted by name.
func All() []*Descriptor { return Default.All() }
