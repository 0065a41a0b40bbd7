// Registry-driven differential checks: every kernel in the default
// registry runs through kernel.Differential's variants, so a kernel added
// by a single Register call is covered here with no test edits. The
// completeness and extension tests below pin exactly that property, and
// the divergence test proves the engine can fail.
package integration

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"crcwpram/internal/alg/maxfind"
	"crcwpram/internal/bench"
	"crcwpram/internal/core/chaos"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"
	"crcwpram/internal/race"
	"crcwpram/internal/sched"

	_ "crcwpram/internal/alg/listrank"
	_ "crcwpram/internal/alg/matching"
)

// The differential tests below split the engine's variants among
// themselves: the four TestRegistry tests pass AxisVariants between them,
// TestRegistryDifferentialPolicy also passes Steal,
// TestExecEventTraceDifferentialMatrix passes EventTrace, and each
// TestExecMetricsDifferential test passes Metrics over one algorithm
// package's kernels. Together they pass differentialVariants over the
// whole registry, which keeps each reference run for the next call.

// differentialVariants are the variants the differential tests pass
// between them: every axis value, the stealing opt-in forced both ways, a
// metrics machine and an event-traced machine.
func differentialVariants() []kernel.Variant {
	return append(kernel.AxisVariants(), kernel.Steal, kernel.Metrics, kernel.EventTrace)
}

// Name prefixes of the AxisVariants the first three registry tests pass;
// TestRegistrySmoke passes the rest.
var (
	execAxes    = []string{"exec=", "repr="}
	policyAxes  = []string{"policy="}
	relabelAxes = []string{"relabel"}
)

// axisVariants splits AxisVariants into those whose names start with one
// of prefixes and the rest.
func axisVariants(prefixes ...string) (in, rest []kernel.Variant) {
	for _, v := range kernel.AxisVariants() {
		if slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(v.Name, p) }) {
			in = append(in, v)
		} else {
			rest = append(rest, v)
		}
	}
	return in, rest
}

// differential fails t unless kernel.Differential passes the default
// registry at worker counts ps under vs, of which there must be some.
func differential(t *testing.T, ps []int, vs ...kernel.Variant) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatal("no variant to run")
	}
	if err := kernel.Differential(kernel.Default, ps, vs...); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryDifferentialExec byte-compares every registered kernel's
// trace replay of every method, and its bitmap representation under both
// backends, against the bare team/word reference.
func TestRegistryDifferentialExec(t *testing.T) {
	vs, _ := axisVariants(execAxes...)
	differential(t, []int{1, 2, 4}, vs...)
}

// TestRegistryDifferentialPolicy byte-compares every registered kernel's
// team runs under each non-block scheduling policy, and every stealable
// kernel's runs with its stealing opt-in forced on and off, against the
// block reference. One worker takes every iteration under every policy,
// so the worker counts start at two.
func TestRegistryDifferentialPolicy(t *testing.T) {
	vs, _ := axisVariants(policyAxes...)
	differential(t, []int{2, 4}, append(vs, kernel.Steal)...)
}

// TestRegistryDifferentialRelabel checks that every relabelable kernel's
// result, unpermuted, is invariant under every CSR relabeling, backend and
// representation.
func TestRegistryDifferentialRelabel(t *testing.T) {
	vs, _ := axisVariants(relabelAxes...)
	differential(t, []int{1, 2, 4}, vs...)
}

// TestRegistrySmoke passes the axis variants the three tests above leave
// out (edge balance today), so that the four together run and compare
// every (kernel, axis, value) pair AxisVariants reaches, which
// kernel.TestAxisVariantsCoverAxes shows is every pair a descriptor
// declares: the guarantee behind -run accepting any advertised selector.
func TestRegistrySmoke(t *testing.T) {
	_, rest := axisVariants(slices.Concat(execAxes, policyAxes, relabelAxes)...)
	differential(t, []int{1, 2, 4}, rest...)
}

// TestExecEventTraceDifferentialMatrix byte-compares every registered
// kernel's team runs on a machine carrying an event-trace flight recorder,
// its rings small enough to wrap, against the bare reference, and checks
// each drained timeline. Under -race it also watches span emission and the
// live counters.
func TestExecEventTraceDifferentialMatrix(t *testing.T) {
	differential(t, []int{1, 2, 4}, kernel.EventTrace)
}

// metricsPkgs are the algorithm packages the TestExecMetricsDifferential
// tests cover, one test each; TestRegistryCompleteness demands that every
// package under internal/alg be among them.
var metricsPkgs = []string{"bfs", "cc", "listrank", "matching", "maxfind", "mis"}

// metricsDifferential passes the Metrics variant, restricted to the
// kernels package pkg registers: recording on a metrics machine with the
// per-cell probe must not change a result, and the engine checks what the
// recorder saw.
func metricsDifferential(t *testing.T, pkg string) {
	t.Helper()
	if !slices.ContainsFunc(kernel.All(), func(d *kernel.Descriptor) bool { return d.Pkg == pkg }) {
		t.Fatalf("package %s registers no kernel", pkg)
	}
	v := kernel.Metrics
	v.Runs = func(d *kernel.Descriptor, p int, method cw.Method) []kernel.Run {
		if d.Pkg != pkg {
			return nil
		}
		return kernel.Metrics.Runs(d, p, method)
	}
	differential(t, []int{1, 2, 4}, v)
}

// One metrics differential per algorithm package in metricsPkgs.
func TestExecMetricsDifferentialBFS(t *testing.T)      { metricsDifferential(t, "bfs") }
func TestExecMetricsDifferentialCC(t *testing.T)       { metricsDifferential(t, "cc") }
func TestExecMetricsDifferentialListRank(t *testing.T) { metricsDifferential(t, "listrank") }
func TestExecMetricsDifferentialMatching(t *testing.T) { metricsDifferential(t, "matching") }
func TestExecMetricsDifferentialMaxfind(t *testing.T)  { metricsDifferential(t, "maxfind") }
func TestExecMetricsDifferentialMIS(t *testing.T)      { metricsDifferential(t, "mis") }

// TestRegistryCompleteness walks the algorithm packages on disk and
// demands each registers at least one kernel and has its metrics
// differential test (and that no registration claims a package that does
// not exist): the registry cannot silently drift from the source tree.
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
		if !slices.Contains(metricsPkgs, e.Name()) {
			t.Errorf("package internal/alg/%s has no TestExecMetricsDifferential test", e.Name())
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
// -run's parser, passes the differential engine's variants, and shows up
// in a bench sweep. A private registry keeps the toy out of the real
// suite.
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

	// Differential engine: the toy kernel is run through every axis value
	// and every observer and compared without any test edits.
	if err := kernel.Differential(reg, []int{1, 2}, differentialVariants()...); err != nil {
		t.Fatalf("differential engine over the toy registry: %v", err)
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

// divergentInstance is a toy graph kernel whose result, each vertex's
// degree, no backend, policy, representation, balance, relabeling,
// stealing opt-in or observer may change. It computes the vector in a
// region, so an observed machine records busy time and a timeline. faulty
// names the one variant under which it goes wrong: it then corrupts an
// entry in every run that variantOf attributes to that variant, or, for
// the relabel variant, returns each vertex's id, which a relabeling
// changes.
type divergentInstance struct {
	m      *machine.Machine
	g      *graph.Graph
	faulty string
	out    []uint32
}

func (in *divergentInstance) Prepare(kernel.Settings) {}

func (in *divergentInstance) Run(s kernel.Settings) kernel.Outcome {
	offsets := in.g.Offsets()
	exec.Run(in.m, s.Exec, func(ctx exec.Ctx) {
		ctx.For(len(in.out), func(v int) {
			in.out[v] = offsets[v+1] - offsets[v]
			if in.faulty == "relabel" {
				in.out[v] = uint32(v)
			}
		})
	})
	if sig := variantOf(in.m, s); sig != "" && strings.HasPrefix(in.faulty, sig) {
		in.out[0]++
	}
	return kernel.Outcome{Vector: in.out}
}

func (in *divergentInstance) Validate() error { return nil }

func (in *divergentInstance) Trace() *exec.TraceStats { return nil }

// variantOf names the variant a run belongs to, judged only by what an
// instance sees: the machine's observers and policy and the run's
// settings. A reference run belongs to none; a relabeled run cannot be
// told from a plain one.
func variantOf(m *machine.Machine, s kernel.Settings) string {
	switch {
	case s.Steal != kernel.StealDefault:
		return "steal"
	case m.Chaos() != nil:
		return "chaos policy=" + m.Policy().String()
	case m.Events() != nil:
		return "evtrace"
	case m.Metrics() != nil:
		return "metrics"
	case m.Policy() != sched.Block:
		return "policy=" + m.Policy().String()
	case s.Bitmap:
		return "repr=bitmap"
	case s.Balance != graph.BalanceVertex:
		return "balance=" + s.Balance.String()
	case s.Exec == machine.ExecTrace:
		return "exec=trace"
	}
	return ""
}

// TestRegistryDifferentialCatchesDivergence proves the engine has teeth:
// for every variant the registry and chaos tests pass, a toy kernel that
// goes wrong only under that variant must fail Differential with an error
// naming it, while the fault-free toy passes every variant.
func TestRegistryDifferentialCatchesDivergence(t *testing.T) {
	variants := append(differentialVariants(), kernel.ChaosVariants([]uint64{1}, chaos.AllFaults)...)
	registry := func(faulty string) *kernel.Registry {
		reg := kernel.NewRegistry()
		reg.MustRegister(kernel.Descriptor{
			Name:        "degree",
			Pkg:         "integration",
			Summary:     "vertex degrees, wrong under one variant when faulty",
			Bitmap:      true,
			Balanced:    true,
			Stealable:   true,
			Relabelable: true,
			Input:       kernel.InputGraph,
			New: func(m *machine.Machine, w kernel.Workload) kernel.Instance {
				return &divergentInstance{m: m, g: w.Graph, faulty: faulty, out: make([]uint32, w.Graph.NumVertices())}
			},
		})
		return reg
	}
	ps := []int{2}
	if err := kernel.Differential(registry(""), ps, variants...); err != nil {
		t.Fatalf("fault-free toy: %v", err)
	}
	for _, v := range variants {
		// A methodless kernel's errors print "-" for the method, just
		// before the variant's name.
		err := kernel.Differential(registry(v.Name), ps, variants...)
		if err == nil || !strings.Contains(err.Error(), "- "+v.Name+" ") {
			t.Errorf("toy wrong under %s: Differential returned %v", v.Name, err)
			continue
		}
		t.Log(err)
	}
}

// TestRegistryDifferentialCatchesLeak proves the engine's goroutine
// check: a kernel whose constructor starts a goroutine that outlives its
// machines must fail Differential once the engine's deadline passes.
func TestRegistryDifferentialCatchesLeak(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	reg := kernel.NewRegistry()
	reg.MustRegister(kernel.Descriptor{
		Name:    "leaky",
		Pkg:     "integration",
		Summary: "vertex degrees, leaking a goroutine per instance",
		Input:   kernel.InputGraph,
		New: func(m *machine.Machine, w kernel.Workload) kernel.Instance {
			go func() { <-stop }()
			return &divergentInstance{m: m, g: w.Graph, out: make([]uint32, w.Graph.NumVertices())}
		},
	})
	err := kernel.Differential(reg, []int{1}, kernel.Metrics)
	if err == nil || !strings.Contains(err.Error(), "goroutines alive") {
		t.Fatalf("a leaking kernel passed the engine: %v", err)
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
