// The metrics differential: every kernel of the suite runs the same
// fixed-seed input twice per timed backend — once on a plain machine, once
// on a machine.WithMetrics machine with the per-cell probe attached — and
// the deterministic projection of each result must be byte-identical. This
// pins the observability layer's core contract: recording changes what you
// know, never what the kernel computes. The projections are the same ones
// the exec matrix uses (level/depth for BFS, the canonical partition for
// CC, and so on), so any metrics-induced divergence — a Claim wrapper that
// swallows a win, a probe CAS that perturbs a guard — shows up as a byte
// diff rather than a statistical anomaly.
//
// The test name starts with TestExec so CI's exec-matrix job (which runs
// -run 'TestExec' under -race) picks it up: under -race it additionally
// proves the recording path is race-free against real concurrency.
package integration

import (
	"bytes"
	"fmt"
	"testing"

	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/alg/cc"
	"crcwpram/internal/alg/listrank"
	"crcwpram/internal/alg/matching"
	"crcwpram/internal/alg/maxfind"
	"crcwpram/internal/alg/mis"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/graph"
)

// timedExecs are the backends whose workers actually record: the trace
// backend's Ctx.Metrics is nil by design (its serial replay has no
// contention to observe), so a metrics differential there is vacuous.
var timedExecs = machine.Execs

// metricsMachine is testMachine with recording enabled and the probe
// attached over n cells.
func metricsMachine(t *testing.T, p, n int) *machine.Machine {
	t.Helper()
	m := machine.New(p, machine.WithMetrics())
	m.Metrics().EnableProbe(n)
	t.Cleanup(m.Close)
	return m
}

// runDifferential executes run on both machines under every timed backend
// and compares projections, then sanity-checks the instrumented machine's
// snapshot with check (which receives the backend for error messages).
func runDifferential(t *testing.T, tag string, plain, inst *machine.Machine,
	run func(m *machine.Machine, e machine.Exec) []byte,
	check func(e machine.Exec, s metrics.Snapshot) error) {
	t.Helper()
	for _, e := range timedExecs {
		want := run(plain, e)
		inst.Metrics().Reset()
		got := run(inst, e)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s under %s: metrics-on projection diverges from metrics-off (%d vs %d bytes)",
				tag, e, len(got), len(want))
		}
		if check != nil {
			if err := check(e, inst.Snapshot()); err != nil {
				t.Fatalf("%s under %s: %v", tag, e, err)
			}
		}
	}
}

// checkGuarded asserts the snapshot of a guarded kernel run: work was
// recorded, the attempt ledger is consistent, and — for the round-stamped
// resolver — no cell absorbed more executed attempts in one round than the
// paper's bound of P allows.
func checkGuarded(p int, method cw.Method) func(machine.Exec, metrics.Snapshot) error {
	return func(e machine.Exec, s metrics.Snapshot) error {
		if s.CASAttempts == 0 || s.CASWins == 0 {
			return fmt.Errorf("no executed attempts recorded (snapshot %+v)", s)
		}
		if s.CASAttempts != s.CASWins+s.CASLosses {
			return fmt.Errorf("attempts %d != wins %d + losses %d", s.CASAttempts, s.CASWins, s.CASLosses)
		}
		if method == cw.CASLT && s.MaxCellClaims > uint64(p) {
			return fmt.Errorf("%d executed CASes on one cell in one round, paper bounds it by P=%d",
				s.MaxCellClaims, p)
		}
		if s.Rounds == 0 {
			return fmt.Errorf("no rounds recorded")
		}
		return nil
	}
}

func TestExecMetricsDifferentialBFS(t *testing.T) {
	g := graph.RMAT(7, 600, 0.57, 0.19, 0.19, 9)
	for _, p := range []int{1, 2, 4} {
		plain, inst := testMachine(t, p), metricsMachine(t, p, g.NumVertices())
		kp, ki := bfs.NewKernel(plain, g), bfs.NewKernel(inst, g)
		kernelOf := func(m *machine.Machine) *bfs.Kernel {
			if m == inst {
				return ki
			}
			return kp
		}
		for _, method := range guardedMethods {
			tag := fmt.Sprintf("p=%d bfs/%v", p, method)
			runDifferential(t, tag, plain, inst, func(m *machine.Machine, e machine.Exec) []byte {
				k := kernelOf(m)
				k.Prepare(0)
				r := k.RunExec(e, method)
				if err := bfs.Validate(g, 0, r, true); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				return bfsProjection(r)
			}, checkGuarded(p, method))
		}
		// The frontier variant exercises the Shard path through its push
		// relaxation (shards flow through ForWorker, not Range), with each
		// level read from the discovery buffers in place.
		tag := fmt.Sprintf("p=%d bfs-frontier", p)
		runDifferential(t, tag, plain, inst, func(m *machine.Machine, e machine.Exec) []byte {
			k := kernelOf(m)
			k.Prepare(0)
			r := k.RunCASLTFrontierExec(e)
			if err := bfs.ValidateBidir(g, 0, r); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			return bfsProjection(r)
		}, nil)
	}
}

func TestExecMetricsDifferentialCC(t *testing.T) {
	g := graph.RMAT(7, 600, 0.57, 0.19, 0.19, 9)
	for _, p := range []int{1, 2, 4} {
		plain, inst := testMachine(t, p), metricsMachine(t, p, g.NumVertices())
		kp, ki := cc.NewKernel(plain, g), cc.NewKernel(inst, g)
		for _, method := range guardedMethods {
			tag := fmt.Sprintf("p=%d cc/%v", p, method)
			runDifferential(t, tag, plain, inst, func(m *machine.Machine, e machine.Exec) []byte {
				k := kp
				if m == inst {
					k = ki
				}
				k.Prepare()
				r := k.RunExec(e, method)
				if err := cc.Validate(g, r); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				return u32bytes(canonicalPartition(r.Labels))
			}, checkGuarded(p, method))
		}
	}
}

func TestExecMetricsDifferentialMaxfind(t *testing.T) {
	list := make([]uint32, 300)
	for i := range list {
		list[i] = uint32((i * 131) % 197)
	}
	want := maxfind.Sequential(list)
	for _, p := range []int{1, 2, 4} {
		plain, inst := testMachine(t, p), metricsMachine(t, p, len(list))
		kp, ki := maxfind.NewKernel(plain, len(list)), maxfind.NewKernel(inst, len(list))
		for _, method := range guardedMethods {
			tag := fmt.Sprintf("p=%d maxfind/%v", p, method)
			runDifferential(t, tag, plain, inst, func(m *machine.Machine, e machine.Exec) []byte {
				k := kp
				if m == inst {
					k = ki
				}
				k.Prepare(list)
				got := k.RunExec(e, method)
				if got != want {
					t.Fatalf("%s: max %d, want %d", tag, got, want)
				}
				return []byte{byte(got), byte(got >> 8), byte(got >> 16), byte(got >> 24)}
			}, checkGuarded(p, method))
		}
	}
}

func TestExecMetricsDifferentialMIS(t *testing.T) {
	g := graph.RMAT(7, 600, 0.57, 0.19, 0.19, 9)
	for _, p := range []int{1, 2, 4} {
		plain, inst := testMachine(t, p), metricsMachine(t, p, g.NumVertices())
		kp, ki := mis.NewKernel(plain, g), mis.NewKernel(inst, g)
		for _, method := range guardedMethods {
			tag := fmt.Sprintf("p=%d mis/%v", p, method)
			runDifferential(t, tag, plain, inst, func(m *machine.Machine, e machine.Exec) []byte {
				k := kp
				if m == inst {
					k = ki
				}
				k.Prepare()
				inSet := k.RunExec(e, method, 7)
				if err := mis.Validate(g, inSet); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				return u32bytes(inSet)
			}, checkGuarded(p, method))
		}
	}
}

func TestExecMetricsDifferentialMatching(t *testing.T) {
	g := graph.RMAT(7, 600, 0.57, 0.19, 0.19, 9)
	for _, p := range []int{1, 2, 4} {
		plain, inst := testMachine(t, p), metricsMachine(t, p, g.NumVertices())
		kp, ki := matching.NewKernel(plain, g), matching.NewKernel(inst, g)
		tag := fmt.Sprintf("p=%d matching", p)
		runDifferential(t, tag, plain, inst, func(m *machine.Machine, e machine.Exec) []byte {
			k := kp
			if m == inst {
				k = ki
			}
			k.Prepare()
			r := k.RunExec(e, 7)
			if err := matching.Validate(g, r); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if p == 1 {
				return append(u32bytes(r.Mate), u32bytes(r.MateEdge)...)
			}
			// At P>1 the arbitrary-write winners legitimately differ run to
			// run; the validator is the check (as in the exec matrix).
			return nil
		}, func(e machine.Exec, s metrics.Snapshot) error {
			if s.CASAttempts == 0 {
				return fmt.Errorf("no executed attempts recorded")
			}
			// Two cell arrays (propose, accept) share the probe index
			// space, so the bound doubles.
			if s.MaxCellClaims > 2*uint64(p) {
				return fmt.Errorf("%d executed CASes on one cell in one round, bound is 2P=%d",
					s.MaxCellClaims, 2*p)
			}
			return nil
		})
	}
}

func TestExecMetricsDifferentialListRank(t *testing.T) {
	next := listrank.RandomList(2000, 11)
	want := u32bytes(listrank.SequentialRank(next))
	for _, p := range []int{1, 2, 4} {
		plain, inst := testMachine(t, p), metricsMachine(t, p, len(next))
		tag := fmt.Sprintf("p=%d listrank", p)
		runDifferential(t, tag, plain, inst, func(m *machine.Machine, e machine.Exec) []byte {
			got := u32bytes(listrank.RankExec(m, e, next))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: ranks diverge from sequential", tag)
			}
			return got
		}, func(e machine.Exec, s metrics.Snapshot) error {
			// EREW negative control: recording ran (time accrued, rounds
			// counted) but no concurrent-write attempts exist to count.
			if s.CASAttempts != 0 || s.PrecheckSkips != 0 {
				return fmt.Errorf("EREW kernel recorded CW traffic: %+v", s)
			}
			if s.Rounds == 0 {
				return fmt.Errorf("no rounds recorded")
			}
			return nil
		})
	}
}
