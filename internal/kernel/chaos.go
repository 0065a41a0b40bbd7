package kernel

import (
	"bytes"
	"fmt"

	"crcwpram/internal/core/chaos"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/sched"
)

// chaosWorkload picks the one workload DifferentialChaos drives per
// kernel: the skewed RMAT graph for graph kernels (contention on hubs is
// what the faults amplify), the pointer-jumping-boundary chain for chain
// kernels, the standard list otherwise. One workload keeps the matrix —
// which already multiplies kernels × methods × backends × policies ×
// seeds — affordable under the race detector.
func chaosWorkload(d *Descriptor) NamedWorkload {
	ws := MatrixWorkloads(d)
	switch d.Input {
	case InputGraph:
		return ws[1] // rmat
	case InputChain:
		return ws[2] // chain257
	default:
		return ws[0]
	}
}

// chaosSpan is the claim-index span the invariant checker covers for a
// workload: every instrumented claim site indexes cells by vertex (graph
// kernels), list element (maxfind), or chain node.
func chaosSpan(d *Descriptor, nw NamedWorkload) int {
	switch d.Input {
	case InputList:
		return len(nw.W.List)
	case InputChain:
		return len(nw.W.Next)
	default:
		return nw.W.Graph.NumVertices()
	}
}

// checkerEligible reports whether the invariant checker's winner and
// bound accounting is meaningful for a run of d under method: Naive and
// Mutex report every executed attempt as a win by design (no winner
// selection), so only the winner-selecting methods are checked.
func checkerEligible(method cw.Method) bool {
	switch method {
	case cw.Naive, cw.Mutex:
		return false
	}
	return true
}

// enableChaosChecker attaches a per-run invariant checker to m sized for
// the workload: winners-per-cell from the descriptor's probe-bound factor
// (matching commits its propose and accept winners into one shared index
// space), and the paper's ≤ factor×P executed-attempt bound enforced for
// CAS-LT runs of guarded kernels — exactly the discipline the contention
// sweep applies. Returns nil when the method has no winner selection.
func enableChaosChecker(m *machine.Machine, d *Descriptor, nw NamedWorkload, method cw.Method) *metrics.Checker {
	if !checkerEligible(method) {
		m.Metrics().DisableChecker()
		return nil
	}
	var bound uint64
	if method == cw.CASLT && d.Contention == ContentionGuarded {
		bound = uint64(d.ProbeBoundFactor) * uint64(m.P())
	}
	return m.Metrics().EnableChecker(chaosSpan(d, nw), uint64(d.ProbeBoundFactor), bound)
}

// DifferentialChaos runs every registered kernel under adversarial
// schedule perturbation and demands nothing changes: for each kernel ×
// method × timed backend (team) × scheduling policy (block, stealing) ×
// seed, a machine carrying a chaos.Injector with the given
// fault mask runs the kernel with the invariant checker attached, the run
// must validate, the checker must catch zero violations, and — for
// kernels deterministic at p — the projection must be byte-identical to
// an unperturbed team/block reference. Kernels exposing the generic
// resolver hook additionally run a sticky-loser leg: a StickyResolver
// re-drives every lost claim and asserts no re-drive ever wins.
//
// A single Register call therefore buys a kernel chaos coverage for free,
// the same way it buys the exec/policy/relabel matrices.
func DifferentialChaos(reg *Registry, p int, seeds []uint64, faults chaos.Fault) error {
	for _, d := range reg.All() {
		if err := diffChaosOne(d, p, seeds, faults); err != nil {
			return err
		}
	}
	return nil
}

func diffChaosOne(d *Descriptor, p int, seeds []uint64, faults chaos.Fault) error {
	nw := chaosWorkload(d)

	// Unperturbed team/block reference projections, one per method.
	ref := machine.New(p)
	refInst := d.New(ref, nw.W)
	want := map[cw.Method][]byte{}
	for _, method := range matrixMethods(d) {
		b, err := oneRun(d, refInst, p, Settings{Exec: machine.ExecTeam, Method: method})
		if err != nil {
			ref.Close()
			return fmt.Errorf("%s/%s p=%d %s reference: %w", d.Name, nw.Name, p, method, err)
		}
		want[method] = b
	}
	ref.Close()

	for _, seed := range seeds {
		for _, pol := range []sched.Policy{sched.Block, sched.Stealing} {
			inj := chaos.NewInjector(p, seed, faults)
			m := machine.New(p, machine.WithPolicy(pol), machine.WithChaos(inj))
			inst := d.New(m, nw.W)
			for _, method := range matrixMethods(d) {
				for _, e := range machine.Execs {
					tag := fmt.Sprintf("%s/%s p=%d %s %s policy=%s seed=%d faults=%s",
						d.Name, nw.Name, p, method, e, pol, seed, faults)
					ck := enableChaosChecker(m, d, nw, method)
					got, err := oneRun(d, inst, p, Settings{Exec: e, Method: method})
					if err != nil {
						m.Close()
						return fmt.Errorf("%s: %w", tag, err)
					}
					if ck != nil {
						if err := ck.Err(); err != nil {
							m.Close()
							return fmt.Errorf("%s: %w", tag, err)
						}
					}
					if w := want[method]; w != nil && !bytes.Equal(got, w) {
						m.Close()
						return fmt.Errorf("%s: perturbed run diverges from unperturbed reference", tag)
					}
				}
			}
			if err := chaosResolverLeg(d, nw, m, inst, faults, seed, pol); err != nil {
				m.Close()
				return err
			}
			m.Close()
		}
	}
	return nil
}

// chaosResolverLeg drives kernels exposing the generic resolver hook
// through a sticky-loser resolver: every lost claim is re-driven within
// its round, and a re-drive that wins is a double commit the leg fails
// on. Only the winner-selecting resolver methods make sense here.
func chaosResolverLeg(d *Descriptor, nw NamedWorkload, m *machine.Machine, inst Instance, faults chaos.Fault, seed uint64, pol sched.Policy) error {
	rr, ok := inst.(ResolverRunner)
	if !ok || faults&chaos.FaultSticky == 0 {
		return nil
	}
	n := chaosSpan(d, nw)
	for _, method := range []cw.Method{cw.CASLT, cw.GatekeeperChecked} {
		if len(d.Methods) > 0 && !d.SupportsMethod(method) {
			continue
		}
		tag := fmt.Sprintf("%s/%s sticky-resolver %s policy=%s seed=%d", d.Name, nw.Name, method, pol, seed)
		ck := enableChaosChecker(m, d, nw, method)
		sr := chaos.NewStickyResolver(cw.NewResolver(method, n, cw.Packed))
		inst.Prepare(Settings{Exec: machine.ExecTeam, Method: method})
		rr.RunResolver(machine.ExecTeam, sr)
		if err := inst.Validate(); err != nil {
			return fmt.Errorf("%s: %w", tag, err)
		}
		if err := sr.Err(); err != nil {
			return fmt.Errorf("%s: %w", tag, err)
		}
		if ck != nil {
			if err := ck.Err(); err != nil {
				return fmt.Errorf("%s: %w", tag, err)
			}
		}
	}
	return nil
}
