package kernel

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"crcwpram/internal/core/chaos"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

// Run is one run of a variant: the axis settings, the relabeling of the
// input graph, and whether the run goes through the resolver hook.
type Run struct {
	Settings
	// Relabel runs the kernel on the input graph relabeled by this mode;
	// the outcome is unpermuted to the original vertex ids before it is
	// compared.
	Relabel graph.RelabelMode
	// Sticky runs the kernel through its ResolverRunner hook with a
	// chaos.StickyResolver around the method's resolver, which re-drives
	// every lost claim and fails if a re-drive wins. A kernel without the
	// hook makes no sticky run.
	Sticky bool
}

// String names the run's backend and every setting it moves away from
// the reference, for error messages.
func (r Run) String() string {
	s := r.Exec.String()
	if r.Bitmap {
		s += " repr=bitmap"
	}
	if r.Balance != graph.BalanceVertex {
		s += " balance=" + r.Balance.String()
	}
	if r.Relabel != graph.RelabelNone {
		s += " relabel=" + r.Relabel.String()
	}
	if r.Sticky {
		s += " sticky-resolver"
	}
	return s
}

// Variant is one way of running a kernel that must not change its
// result: the machine it runs on and the runs it makes there.
type Variant struct {
	// Name identifies the variant in error messages.
	Name string
	// Options builds the machine options for p workers; nil means a bare
	// machine.
	Options func(p int) []machine.Option
	// Runs lists the runs to make for one method of the kernel on a
	// p-worker machine; an empty list makes none.
	Runs func(d *Descriptor, p int, method cw.Method) []Run
	// Inputs picks the kernel's inputs; nil means MatrixWorkloads.
	Inputs func(d *Descriptor) []NamedWorkload
}

// Differential runs every registered kernel under every variant and
// demands that nothing changes. For each kernel, input, worker count in
// ps and method, the reference is one validated run on a bare machine:
// team backend, block policy, word representation, vertex balance,
// identity labeling. It is computed on first use and kept on reg, so
// callers that split the variants among several calls run it once. Every
// variant run must validate and, where the kernel is deterministic at p,
// project to the reference's bytes; observe then checks whatever the
// variant's machine recorded. A variant that makes no run at some worker
// count builds no machine there. Once a kernel's machines are closed,
// their helper goroutines must be gone. The first failure is returned,
// naming the kernel, worker count, input, method, variant and run.
func Differential(reg *Registry, ps []int, variants ...Variant) error {
	for _, d := range reg.All() {
		g0 := runtime.NumGoroutine()
		for _, v := range variants {
			inputs := MatrixWorkloads(d)
			if v.Inputs != nil {
				inputs = v.Inputs(d)
			}
			for _, nw := range inputs {
				for _, p := range ps {
					runs := v.runs(d, p)
					if len(runs) == 0 {
						continue
					}
					want, err := reg.reference(d, nw, p)
					if err != nil {
						return err
					}
					if err := runVariant(d, v, nw, p, runs, want); err != nil {
						return err
					}
				}
			}
		}
		if err := settle(d.Name, g0); err != nil {
			return err
		}
	}
	return nil
}

// runs lists every run v makes for d's methods on a p-worker machine.
func (v Variant) runs(d *Descriptor, p int) []Run {
	var runs []Run
	for _, method := range matrixMethods(d) {
		runs = append(runs, v.Runs(d, p, method)...)
	}
	return runs
}

// refKey names one (kernel, input, worker count) cell of a registry's
// references.
type refKey struct {
	kernel, input string
	p             int
}

// reference returns d's reference projections on nw at p, running them on
// first use and keeping them on r.
func (r *Registry) reference(d *Descriptor, nw NamedWorkload, p int) (map[cw.Method][]byte, error) {
	key := refKey{d.Name, nw.Name, p}
	r.mu.Lock()
	want, ok := r.refs[key]
	r.mu.Unlock()
	if ok {
		return want, nil
	}
	want, err := runReference(d, nw, p)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.refs[key] = want
	r.mu.Unlock()
	return want, nil
}

// runReference runs every method of d once on a bare p-worker machine and
// returns the projections; a method maps to nil where d is not
// deterministic at p, so that no comparison is made.
func runReference(d *Descriptor, nw NamedWorkload, p int) (map[cw.Method][]byte, error) {
	m := machine.New(p)
	defer m.Close()
	inst := d.New(m, nw.W)
	want := map[cw.Method][]byte{}
	for _, method := range matrixMethods(d) {
		s := Settings{Exec: machine.ExecTeam, Method: method}
		inst.Prepare(s)
		out := inst.Run(s)
		if err := inst.Validate(); err != nil {
			return nil, fmt.Errorf("%s p=%d: %s %s reference: %w", d.Name, p, nw.Name, methodName(d, method), err)
		}
		if d.Deterministic(p) {
			want[method] = d.Projection(out)
		}
	}
	return want, nil
}

// relabeled is a kernel instance on a relabeled copy of the input graph;
// rl is nil for the identity labeling.
type relabeled struct {
	inst Instance
	rl   *graph.Relabeling
}

// runVariant makes runs, v's runs for d on nw, on one fresh p-worker
// machine, one instance per relabeling, comparing each against want.
func runVariant(d *Descriptor, v Variant, nw NamedWorkload, p int, runs []Run, want map[cw.Method][]byte) error {
	var opts []machine.Option
	if v.Options != nil {
		opts = v.Options(p)
	}
	m := machine.New(p, opts...)
	defer m.Close()
	span := cells(nw.W)
	m.Metrics().EnableProbe(span)
	insts := map[graph.RelabelMode]relabeled{}
	for _, r := range runs {
		in, ok := insts[r.Relabel]
		if !ok {
			in = relabel(d, m, nw.W, r.Relabel)
			insts[r.Relabel] = in
		}
		if err := run(d, m, in, span, r, want[r.Method]); err != nil {
			return fmt.Errorf("%s p=%d: %s %s %s %s: %w",
				d.Name, p, nw.Name, methodName(d, r.Method), v.Name, r, err)
		}
	}
	return nil
}

// relabel binds d to m on w's graph relabeled by mode.
func relabel(d *Descriptor, m *machine.Machine, w Workload, mode graph.RelabelMode) relabeled {
	if mode == graph.RelabelNone {
		return relabeled{inst: d.New(m, w)}
	}
	rl := graph.Relabel(w.Graph, mode)
	w.Source = rl.Perm[w.Source]
	w.Graph = rl.G
	return relabeled{inst: d.New(m, w), rl: &rl}
}

// run makes one run, validates it, observes the machine, and compares its
// projection against want (nil: no comparison).
func run(d *Descriptor, m *machine.Machine, in relabeled, span int, r Run, want []byte) error {
	rr, hook := in.inst.(ResolverRunner)
	if r.Sticky && !hook {
		return nil
	}
	if m.Chaos() != nil {
		// Naive and Mutex report every executed attempt as a win (no
		// winner selection), so only the selecting methods are checked.
		if r.Method == cw.Naive || r.Method == cw.Mutex {
			m.Metrics().DisableChecker()
		} else {
			m.Metrics().EnableChecker(span, uint64(d.ProbeBoundFactor), d.ClaimBound(r.Method, m.P()))
		}
	}
	in.inst.Prepare(r.Settings)
	m.Metrics().Reset()
	m.Events().Reset()
	var out Outcome
	var sticky *chaos.StickyResolver
	if r.Sticky {
		sticky = chaos.NewStickyResolver(cw.NewResolver(r.Method, span, cw.Packed))
		out = rr.RunResolver(r.Exec, sticky)
	} else {
		out = in.inst.Run(r.Settings)
	}
	if err := in.inst.Validate(); err != nil {
		return err
	}
	if sticky != nil {
		if err := sticky.Err(); err != nil {
			return err
		}
	}
	if err := observe(d, m, r.Settings); err != nil {
		return err
	}
	if want == nil {
		return nil
	}
	if in.rl != nil {
		// Unpermuting restores vertex order; Canon (for label-valued
		// vectors like CC partitions) then erases the renamed label
		// values, so the projection is id-invariant.
		unperm := make([]uint32, len(out.Vector))
		in.rl.Unpermute(unperm, out.Vector)
		out.Vector = unperm
	}
	if !bytes.Equal(d.Projection(out), want) {
		return fmt.Errorf("result diverges from the bare team reference")
	}
	return nil
}

// observe checks what m recorded for one run under s: the claim ledger
// balances, a claim implies a round, a guarded kernel wins a claim and an
// EREW kernel makes none, a team run accrues busy time, no cell absorbed
// more executed attempts in one round than ClaimBound, the chaos
// invariant checker caught nothing, and an event-traced machine drained a
// well-formed timeline. A bare machine records nothing to check.
func observe(d *Descriptor, m *machine.Machine, s Settings) error {
	rec := m.Metrics()
	if rec == nil {
		return nil
	}
	sn := rec.Snapshot()
	claims := sn.CASAttempts + sn.PrecheckSkips
	switch {
	case sn.CASAttempts != sn.CASWins+sn.CASLosses:
		return fmt.Errorf("metrics: %d attempts but %d wins + %d losses", sn.CASAttempts, sn.CASWins, sn.CASLosses)
	case claims > 0 && sn.Rounds == 0:
		return fmt.Errorf("metrics: %d claims but no round", claims)
	case d.Contention == ContentionGuarded && sn.CASWins == 0:
		return fmt.Errorf("metrics: guarded kernel recorded no win")
	case d.Contention == ContentionEREW && claims > 0:
		return fmt.Errorf("metrics: EREW kernel recorded %d claims", claims)
	case s.Exec == machine.ExecTeam && sn.BusyNs <= 0:
		return fmt.Errorf("metrics: team run recorded no busy time")
	}
	if bound := d.ClaimBound(s.Method, m.P()); bound > 0 && sn.MaxCellClaims > bound {
		return fmt.Errorf("metrics: %d executed attempts on one cell in one round, the paper's bound is %d",
			sn.MaxCellClaims, bound)
	}
	if ck := rec.Checker(); ck != nil {
		if err := ck.Err(); err != nil {
			return err
		}
	}
	if ev := m.Events(); ev != nil {
		return checkTimeline(ev, m.P())
	}
	return nil
}

// checkTimeline validates the structure of the timeline drained after one
// traced run: some round spans survived, the summaries cover them, and
// every event stays within the worker tracks.
func checkTimeline(rec *evtrace.Recorder, p int) error {
	tl := rec.Drain()
	rounds := 0
	for _, ev := range tl.Spans {
		if ev.Worker < 0 || int(ev.Worker) >= p {
			return fmt.Errorf("timeline: span worker %d out of range [0,%d)", ev.Worker, p)
		}
		if ev.Dur < 0 {
			return fmt.Errorf("timeline: negative span duration %d", ev.Dur)
		}
		if ev.Kind == evtrace.KindRound {
			rounds++
		}
	}
	if rounds == 0 {
		return fmt.Errorf("timeline: no round spans recorded")
	}
	if len(tl.Rounds) == 0 {
		return fmt.Errorf("timeline: %d round spans but no summaries", rounds)
	}
	for _, rs := range tl.Rounds {
		if rs.Workers == 0 {
			return fmt.Errorf("timeline: round %d summary with no workers", rs.Round)
		}
		if rs.CritWorker < 0 || rs.CritWorker >= p {
			return fmt.Errorf("timeline: round %d crit worker %d out of range", rs.Round, rs.CritWorker)
		}
		if rs.EndNs < rs.StartNs {
			return fmt.Errorf("timeline: round %d ends before it starts", rs.Round)
		}
	}
	return nil
}

// settle waits up to two seconds for the goroutine count to fall back to
// g0, its value before the kernel's first machine: a closed machine must
// have released its helpers.
func settle(name string, g0 int) error {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > g0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %d goroutines alive after its machines closed, %d before",
				name, runtime.NumGoroutine(), g0)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// cells is the claim-index span of a workload: every claim site indexes
// cells by vertex, list element or chain node.
func cells(w Workload) int {
	if w.Graph != nil {
		return w.Graph.NumVertices()
	}
	return len(w.List) + len(w.Next)
}

// methodName prints a method for error messages; a methodless kernel
// runs with the zero method, which names nothing.
func methodName(d *Descriptor, m cw.Method) string {
	if len(d.Methods) == 0 {
		return "-"
	}
	return m.String()
}

// teamRuns is one team run of the method.
func teamRuns(_ *Descriptor, _ int, method cw.Method) []Run {
	return []Run{{Settings: Settings{Exec: machine.ExecTeam, Method: method}}}
}

// AxisVariants returns variants that together move every (axis, value)
// pair a descriptor declares away from the reference, on bare machines:
// the trace replay of every method; the bitmap representation under team
// and trace; edge balance; every relabeling under both backends and both
// representations; and each non-block scheduling policy on more than one
// worker, one variant per policy. The representation, balance and relabel
// runs pin the kernel's repr method (CAS-LT where declared).
func AxisVariants() []Variant {
	execs := []machine.Exec{machine.ExecTeam, machine.ExecTrace}
	vs := []Variant{
		{Name: "exec=trace", Runs: func(_ *Descriptor, _ int, method cw.Method) []Run {
			return []Run{{Settings: Settings{Exec: machine.ExecTrace, Method: method}}}
		}},
		{Name: "repr=bitmap", Runs: func(d *Descriptor, _ int, method cw.Method) []Run {
			if !d.Bitmap || method != reprMethod(d) {
				return nil
			}
			var runs []Run
			for _, e := range execs {
				runs = append(runs, Run{Settings: Settings{Exec: e, Method: method, Bitmap: true}})
			}
			return runs
		}},
		{Name: "balance=edge", Runs: func(d *Descriptor, _ int, method cw.Method) []Run {
			if !d.Balanced || method != reprMethod(d) {
				return nil
			}
			return []Run{{Settings: Settings{Exec: machine.ExecTeam, Method: method, Balance: graph.BalanceEdge}}}
		}},
		{Name: "relabel", Runs: func(d *Descriptor, _ int, method cw.Method) []Run {
			if !d.Relabelable || d.Input != InputGraph || method != reprMethod(d) {
				return nil
			}
			reprs := []bool{false}
			if d.Bitmap {
				reprs = append(reprs, true)
			}
			var runs []Run
			for _, mode := range graph.RelabelModes[1:] {
				for _, e := range execs {
					for _, bitmap := range reprs {
						s := Settings{Exec: e, Method: method, Bitmap: bitmap}
						runs = append(runs, Run{Settings: s, Relabel: mode})
					}
				}
			}
			return runs
		}},
	}
	for _, pol := range sched.Policies {
		if pol == sched.Block {
			continue
		}
		vs = append(vs, Variant{
			Name:    "policy=" + pol.String(),
			Options: func(int) []machine.Option { return []machine.Option{machine.WithPolicy(pol)} },
			Runs: func(d *Descriptor, p int, method cw.Method) []Run {
				// One worker takes every iteration under every policy:
				// there is no partition to vary.
				if p == 1 {
					return nil
				}
				return teamRuns(d, p, method)
			},
		})
	}
	return vs
}

// Metrics runs every method under team on a machine.WithMetrics machine
// with the per-cell probe attached: recording changes what is known about
// a run, never what it computes.
var Metrics = Variant{
	Name:    "metrics",
	Options: func(int) []machine.Option { return []machine.Option{machine.WithMetrics()} },
	Runs:    teamRuns,
}

// evtraceCap is the per-worker ring capacity of the EventTrace variant:
// small enough that the deep-path inputs wrap the rings, so the flight
// recorder's overwrite runs under load too.
const evtraceCap = 512

// EventTrace runs every method under team on a machine carrying an
// event-trace flight recorder (which implies metrics): tracing observes
// the schedule and must never perturb a result.
var EventTrace = Variant{
	Name: "evtrace",
	Options: func(p int) []machine.Option {
		return []machine.Option{machine.WithEventTrace(evtrace.New(p, evtraceCap))}
	},
	Runs: teamRuns,
}

// ChaosVariants returns one variant per seed and per scheduling policy,
// block and stealing: a machine carrying a chaos.Injector with faults
// runs every method under team on one input per kernel (chaosInput), with
// the invariant checker attached. With FaultSticky set, CAS-LT and the
// checked gatekeeper also make a sticky-resolver run.
func ChaosVariants(seeds []uint64, faults chaos.Fault) []Variant {
	var vs []Variant
	for _, seed := range seeds {
		for _, pol := range []sched.Policy{sched.Block, sched.Stealing} {
			vs = append(vs, Variant{
				Name: fmt.Sprintf("chaos policy=%s seed=%d faults=%s", pol, seed, faults),
				Options: func(p int) []machine.Option {
					return []machine.Option{machine.WithPolicy(pol), machine.WithChaos(chaos.NewInjector(p, seed, faults))}
				},
				Runs: func(d *Descriptor, p int, method cw.Method) []Run {
					runs := teamRuns(d, p, method)
					if faults&chaos.FaultSticky != 0 && (method == cw.CASLT || method == cw.GatekeeperChecked) {
						runs = append(runs, Run{Settings: runs[0].Settings, Sticky: true})
					}
					return runs
				},
				Inputs: chaosInput,
			})
		}
	}
	return vs
}

// chaosInput picks the one input the chaos variants drive per kernel: the
// skewed RMAT graph for graph kernels (contention on hubs is what the
// faults amplify), the pointer-jumping-boundary chain for chain kernels,
// the standard list otherwise. One input keeps kernels × methods ×
// policies × seeds affordable under the race detector.
func chaosInput(d *Descriptor) []NamedWorkload {
	ws := MatrixWorkloads(d)
	switch d.Input {
	case InputGraph:
		return ws[1:2] // rmat
	case InputChain:
		return ws[2:3] // chain257
	default:
		return ws[:1]
	}
}
