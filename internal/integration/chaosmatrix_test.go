// Chaos matrix: every registered kernel runs under adversarial schedule
// perturbation with the runtime invariant checker attached, and nothing
// may change — results stay byte-identical to unperturbed runs, the
// validator passes, and the checker catches zero violations. The canary
// test then proves the checker has teeth: a deliberately broken resolver
// that double-commits must fail it.
package integration

import (
	"strings"
	"testing"

	"crcwpram/internal/core/chaos"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/kernel"
)

// TestChaosMatrixDifferential drives kernel.ChaosVariants through
// kernel.Differential over the default registry: kernel × method × team ×
// block/stealing × seed, all faults on, at P=4. The CI chaos job runs this
// under -race.
func TestChaosMatrixDifferential(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	if err := kernel.Differential(kernel.Default, []int{4}, kernel.ChaosVariants(seeds, chaos.AllFaults)...); err != nil {
		t.Fatal(err)
	}
}

// doubleCommitResolver wraps a correct resolver and breaks it: a losing
// claim executes its write anyway and reports a win — the double commit
// the invariant checker exists to catch.
type doubleCommitResolver struct {
	inner cw.Resolver
}

func (r *doubleCommitResolver) Method() cw.Method { return r.inner.Method() }
func (r *doubleCommitResolver) Len() int          { return r.inner.Len() }
func (r *doubleCommitResolver) Do(i int, round uint32, write func()) bool {
	return r.DoOutcome(i, round, write) == cw.OutcomeWin
}
func (r *doubleCommitResolver) DoOutcome(i int, round uint32, write func()) cw.Outcome {
	o := r.inner.DoOutcome(i, round, write)
	if o == cw.OutcomeLoss {
		write()
		return cw.OutcomeWin
	}
	return o
}
func (r *doubleCommitResolver) ResetRange(lo, hi int) { r.inner.ResetRange(lo, hi) }

// driveResolver has every worker claim every cell once per round through
// r, feeding the metrics layer exactly like an instrumented kernel. The
// write closures are empty so a broken resolver corrupts only the
// checker's accounting, never shared memory.
func driveResolver(m *machine.Machine, n, rounds int, r cw.Resolver) {
	exec.Run(m, machine.ExecTeam, func(ctx exec.Ctx) {
		for rd := 1; rd <= rounds; rd++ {
			round := uint32(rd)
			ctx.ForWorker(n*ctx.P(), func(i, w int) {
				sh := ctx.Metrics().Shard(w)
				cell := i % n
				sh.Claim(cell, round, r.DoOutcome(cell, round, func() {}))
			})
			ctx.Range(n, func(lo, hi, w int) { r.ResetRange(lo, hi) })
		}
	})
}

// TestChaosCheckerCatchesBrokenResolver is the canary: the same driver
// that passes the checker with a correct gatekeeper resolver must fail it
// — with double-winner violations — when the resolver double-commits.
// The gatekeeper makes the breakage deterministic: every attempt executes
// a fetch-add, so each (cell, round) sees one true win plus P-1 losses
// the broken wrapper converts into extra commits.
func TestChaosCheckerCatchesBrokenResolver(t *testing.T) {
	const n, rounds, p = 32, 3, 4
	m := machine.New(p, machine.WithMetrics())
	defer m.Close()

	ck := m.Metrics().EnableChecker(n, 1, 0)
	driveResolver(m, n, rounds, cw.NewResolver(cw.Gatekeeper, n, cw.Packed))
	if err := ck.Err(); err != nil {
		t.Fatalf("correct resolver failed the checker: %v", err)
	}

	m.Metrics().Reset()
	ck = m.Metrics().EnableChecker(n, 1, 0)
	broken := &doubleCommitResolver{inner: cw.NewResolver(cw.Gatekeeper, n, cw.Packed)}
	driveResolver(m, n, rounds, broken)
	err := ck.Err()
	if err == nil {
		t.Fatal("double-committing resolver passed the invariant checker")
	}
	if !strings.Contains(err.Error(), "double-winner") {
		t.Fatalf("checker error is not a double-winner report: %v", err)
	}
	found := false
	for _, v := range ck.Violations() {
		if v.Kind == metrics.ViolationDoubleWinner {
			found = true
		}
	}
	if !found {
		t.Fatalf("no double-winner violation recorded: %v", ck.Violations())
	}
	if len(ck.WinnerLog()) == 0 {
		t.Fatal("winner log empty after committed wins")
	}
}

// TestChaosCheckerBoundCanary breaks the other invariant: with the
// attempt bound set below the real contention (every worker executes a
// gatekeeper RMW per cell per round), the checker must flag the excess —
// proving the ≤P accounting is live, not vacuous.
func TestChaosCheckerBoundCanary(t *testing.T) {
	const n, p = 16, 4
	m := machine.New(p, machine.WithMetrics())
	defer m.Close()
	ck := m.Metrics().EnableChecker(n, 1, p-1) // one below the true attempt count
	driveResolver(m, n, 1, cw.NewResolver(cw.Gatekeeper, n, cw.Packed))
	found := false
	for _, v := range ck.Violations() {
		if v.Kind == metrics.ViolationBoundExceeded {
			found = true
		}
	}
	if !found {
		t.Fatalf("bound %d with %d attempts per cell raised no bound-exceeded violation", p-1, p)
	}
}

// TestChaosMachineWiring pins the WithChaos plumbing: chaos implies a
// recorder, the injector is reachable from the machine, and a perturbed
// machine still runs regions correctly.
func TestChaosMachineWiring(t *testing.T) {
	inj := chaos.NewInjector(2, 99, chaos.AllFaults)
	m := machine.New(2, machine.WithChaos(inj))
	defer m.Close()
	if m.Chaos() != inj {
		t.Fatal("Chaos() does not return the injector")
	}
	if m.Metrics() == nil {
		t.Fatal("WithChaos did not imply a metrics recorder")
	}
	var sum [2]int
	exec.Run(m, machine.ExecTeam, func(ctx exec.Ctx) {
		ctx.ForWorker(1000, func(i, w int) { sum[w] += i })
		ctx.Barrier()
	})
	if sum[0]+sum[1] != 999*1000/2 {
		t.Fatalf("perturbed region dropped iterations: sum=%d", sum[0]+sum[1])
	}
	if inj.Decisions() == 0 {
		t.Fatal("injector took no decisions during a perturbed region")
	}
}
