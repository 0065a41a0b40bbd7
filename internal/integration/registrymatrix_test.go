// Registry-driven differential matrices: every kernel in the default
// registry is cross-validated over backends, policies, representations and
// relabelings by the generic matrices in internal/kernel, so a kernel
// added by a single Register call is covered here with no test edits. The
// completeness and extension tests below pin exactly that property.
package integration

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"crcwpram/internal/alg/maxfind"
	"crcwpram/internal/bench"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"
	"crcwpram/internal/race"
)

// TestRegistryDifferentialExec byte-compares every registered kernel's
// projection across all execution backends, methods and representations
// against the team/word reference.
func TestRegistryDifferentialExec(t *testing.T) {
	if err := kernel.DifferentialExec(kernel.Default, []int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryDifferentialPolicy byte-compares every registered kernel
// across all scheduling policies and backends against the block/team
// reference.
func TestRegistryDifferentialPolicy(t *testing.T) {
	if err := kernel.DifferentialPolicy(kernel.Default); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryDifferentialRelabel checks every relabelable kernel's result
// is invariant under CSR relabeling after unpermuting.
func TestRegistryDifferentialRelabel(t *testing.T) {
	if err := kernel.DifferentialRelabel(kernel.Default, []int{1, 4}); err != nil {
		t.Fatal(err)
	}
}

// TestRegistrySmoke executes every (kernel, axis, value) pair at least
// once: the guarantee behind -run accepting any advertised selector.
func TestRegistrySmoke(t *testing.T) {
	if err := kernel.Smoke(kernel.Default); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryCompleteness walks the algorithm packages on disk and
// demands each registers at least one kernel (and that no registration
// claims a package that does not exist): the registry cannot silently
// drift from the source tree.
func TestRegistryCompleteness(t *testing.T) {
	byPkg := map[string][]string{}
	for _, d := range kernel.All() {
		byPkg[d.Pkg] = append(byPkg[d.Pkg], d.Name)
	}
	entries, err := os.ReadDir("../alg")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dirs[e.Name()] = true
		if len(byPkg[e.Name()]) == 0 {
			t.Errorf("package internal/alg/%s registers no kernels", e.Name())
		}
	}
	for pkg, names := range byPkg {
		if !dirs[pkg] {
			t.Errorf("kernels %v claim package %q, which is not under internal/alg", names, pkg)
		}
	}
}

// TestRegistryGraphKernelsAllocateLittle bounds what every graph kernel's
// constructor allocates: under 48 bytes per vertex on a 20,000-vertex,
// 200,000-edge graph. One uint32 per arc alone is 80 bytes per vertex
// there, so no kernel may keep an array per arc. A kernel added by a
// single Register call inherits the bound.
func TestRegistryGraphKernelsAllocateLittle(t *testing.T) {
	const n, maxPerVertex = 20_000, 48
	g := graph.RandomUndirected(n, 200_000, 1)
	m := machine.New(2)
	defer m.Close()
	for _, d := range kernel.All() {
		if d.Input != kernel.InputGraph {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		in := d.New(m, kernel.Workload{Graph: g, Seed: 1})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(in)
		if perVertex := float64(after.TotalAlloc-before.TotalAlloc) / n; perVertex >= maxPerVertex {
			t.Errorf("%s: New allocates %.1f B/vertex, want < %d", d.Name, perVertex, maxPerVertex)
		} else {
			t.Logf("%s: New allocates %.1f B/vertex", d.Name, perVertex)
		}
	}
}

// toyInstance adapts the maxfind kernel under a second name, standing in
// for a brand-new algorithm registered by an external package.
type toyInstance struct {
	k    *maxfind.Kernel
	list []uint32
	want int
	last int
	out  [1]uint32
}

func (in *toyInstance) Prepare(kernel.Settings) { in.k.Prepare(in.list) }

func (in *toyInstance) Run(s kernel.Settings) kernel.Outcome {
	in.last = in.k.RunExec(s.Exec, s.Method)
	in.out[0] = uint32(in.last)
	return kernel.Outcome{Vector: in.out[:]}
}

func (in *toyInstance) Validate() error {
	if in.last != in.want {
		return fmt.Errorf("toymax: winner %d, want %d", in.last, in.want)
	}
	return nil
}

func (in *toyInstance) Trace() *exec.TraceStats { return in.k.Trace() }

// TestRegistryToyExtension is the acceptance test for the registry's
// extension story: a toy kernel added through one Register call — and no
// other edit anywhere — appears in -list introspection, is selectable by
// -run's parser, passes the differential exec matrix and the axis smoke
// matrix, and shows up in a bench sweep. A private registry keeps the toy
// out of the real suite.
func TestRegistryToyExtension(t *testing.T) {
	reg := kernel.NewRegistry()
	reg.MustRegister(kernel.Descriptor{
		Name:       "toymax",
		Pkg:        "integration",
		Summary:    "maxfind under an alias, registered by the extension test",
		Methods:    []cw.Method{cw.CASLT, cw.Gatekeeper},
		Input:      kernel.InputList,
		Contention: kernel.ContentionGuarded,
		New: func(m *machine.Machine, w kernel.Workload) kernel.Instance {
			return &toyInstance{
				k:    maxfind.NewKernel(m, len(w.List)),
				list: w.List,
				want: maxfind.Sequential(w.List),
			}
		},
	})

	// -list introspection: the registry enumerates the kernel and its axes.
	names := reg.Names()
	if len(names) != 1 || names[0] != "toymax" {
		t.Fatalf("registry names = %v, want [toymax]", names)
	}
	d, _ := reg.Lookup("toymax")
	var axisNames []string
	for _, ax := range d.Axes() {
		axisNames = append(axisNames, ax.Name)
	}
	if got := strings.Join(axisNames, ","); got != "method,exec,policy" {
		t.Fatalf("toymax axes = %s, want method,exec,policy", got)
	}

	// -run selection: the generic parser accepts the advertised axes and
	// rejects the ones the toy kernel does not declare.
	if _, _, err := reg.ParseSelector("kernel=toymax,method=gatekeeper,exec=team"); err != nil {
		t.Fatalf("ParseSelector rejected a legal toymax selector: %v", err)
	}
	if _, _, err := reg.ParseSelector("kernel=toymax,repr=bitmap"); err == nil {
		t.Fatal("ParseSelector accepted repr for a kernel without a repr axis")
	}

	// Differential matrices: the toy kernel is cross-validated across
	// backends and swept through every axis value without any test edits.
	if err := kernel.DifferentialExec(reg, []int{1, 2}); err != nil {
		t.Fatalf("differential exec matrix over the toy registry: %v", err)
	}
	if err := kernel.Smoke(reg); err != nil {
		t.Fatalf("smoke matrix over the toy registry: %v", err)
	}

	// Bench sweeps: the generic trace sweep picks the kernel up from the
	// registry alone.
	rows := bench.KernelTraceCounts(reg, 2, 300, 900, 7)
	if len(rows) != 1 || rows[0].Kernel != "toymax" {
		t.Fatalf("trace sweep rows = %+v, want exactly one toymax row", rows)
	}
	if rows[0].Steps == 0 || rows[0].Barriers == 0 {
		t.Fatalf("toymax trace row has empty structure: %+v", rows[0])
	}
}

// claimCounts is the claim-and-round part of a metrics snapshot, the part a
// trace replay records.
type claimCounts struct {
	skips, attempts, wins, losses, rounds uint64
}

// countRun prepares inst, runs it once under s with the machine's recorder
// reset after Prepare, validates, and returns the recorded claims.
func countRun(m *machine.Machine, inst kernel.Instance, s kernel.Settings) (claimCounts, error) {
	inst.Prepare(s)
	m.Metrics().Reset()
	inst.Run(s)
	if err := inst.Validate(); err != nil {
		return claimCounts{}, err
	}
	sn := m.Snapshot()
	return claimCounts{sn.PrecheckSkips, sn.CASAttempts, sn.CASWins, sn.CASLosses, sn.Rounds}, nil
}

// TestRegistryTraceReplayCountsClaims checks that the serial trace replay
// records claims and rounds on the machine's metrics shards as a team run
// does. At P=1 the two make the same claims in the same order, so every
// registered kernel × method × matrix input must record equal counts under
// both; a run that records a claim must record a round, and a bare
// machine's replay records nothing. Then each kernel is replayed twice on
// an event-traced P=2 machine, each replay followed by a team run: the
// replays must record equal counts, and under -race the replay's writes to
// the shards and rings must be ordered against the helpers' writes.
func TestRegistryTraceReplayCountsClaims(t *testing.T) {
	m := machine.New(1, machine.WithMetrics())
	defer m.Close()
	bare := machine.New(1)
	defer bare.Close()
	for _, d := range kernel.All() {
		for _, nw := range kernel.MatrixWorkloads(d) {
			inst := d.New(m, nw.W)
			bareInst := d.New(bare, nw.W)
			for _, method := range methodsOf(d) {
				tag := fmt.Sprintf("%s/%s %s", d.Name, nw.Name, method)
				team, err := countRun(m, inst, kernel.Settings{Exec: machine.ExecTeam, Method: method})
				if err != nil {
					t.Fatalf("%s team: %v", tag, err)
				}
				s := kernel.Settings{Exec: machine.ExecTrace, Method: method}
				trace, err := countRun(m, inst, s)
				if err != nil {
					t.Fatalf("%s trace: %v", tag, err)
				}
				if trace != team {
					t.Errorf("%s: trace replay recorded %+v, team run %+v", tag, trace, team)
				}
				if team.skips+team.attempts > 0 && team.rounds == 0 {
					t.Errorf("%s: %+v records claims but no round", tag, team)
				}
				bareInst.Prepare(s)
				bareInst.Run(s)
				if sn := bare.Snapshot(); sn.PrecheckSkips+sn.CASAttempts+sn.Rounds != 0 {
					t.Errorf("%s: a bare machine's replay recorded %+v", tag, sn)
				}
			}
		}
	}

	ev := machine.New(2, machine.WithEventTrace(evtrace.New(2, 64)))
	defer ev.Close()
	for _, d := range kernel.All() {
		nw := smallestWorkload(d)
		inst := d.New(ev, nw.W)
		for _, method := range methodsOf(d) {
			if method == cw.Naive && race.Enabled {
				continue
			}
			tag := fmt.Sprintf("%s/%s %s p=2 evtrace", d.Name, nw.Name, method)
			var first claimCounts
			for i := 0; i < 2; i++ {
				got, err := countRun(ev, inst, kernel.Settings{Exec: machine.ExecTrace, Method: method})
				if err != nil {
					t.Fatalf("%s replay %d: %v", tag, i, err)
				}
				if _, err := countRun(ev, inst, kernel.Settings{Exec: machine.ExecTeam, Method: method}); err != nil {
					t.Fatalf("%s team run %d: %v", tag, i, err)
				}
				if i == 0 {
					first = got
				} else if got != first {
					t.Errorf("%s: second replay recorded %+v, first %+v", tag, got, first)
				}
			}
		}
	}
}

// methodsOf returns d's declared methods, or the zero method for a
// methodless kernel.
func methodsOf(d *kernel.Descriptor) []cw.Method {
	if len(d.Methods) == 0 {
		return []cw.Method{0}
	}
	return d.Methods
}

// smallestWorkload returns d's matrix input with the fewest vertices plus
// arcs, or list or chain elements.
func smallestWorkload(d *kernel.Descriptor) kernel.NamedWorkload {
	size := func(w kernel.Workload) int {
		if w.Graph != nil {
			return w.Graph.NumVertices() + w.Graph.NumArcs()
		}
		return len(w.List) + len(w.Next)
	}
	ws := kernel.MatrixWorkloads(d)
	best := ws[0]
	for _, nw := range ws[1:] {
		if size(nw.W) < size(best.W) {
			best = nw
		}
	}
	return best
}
