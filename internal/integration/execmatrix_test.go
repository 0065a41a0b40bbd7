// Cross-backend state tests: the differential engine itself (every
// registered kernel × method × backend × representation × policy ×
// relabeling × observer, byte-compared against the bare team reference)
// is kernel.Differential, driven by registrymatrix_test.go in this
// package. What remains here are the contracts a registry-driven sweep
// cannot express: round-id continuity when one kernel instance alternates
// backends without reset, and the trace backend's recording contract.
//
// CI runs this package under -race, where the team backend's region
// phases and sense barriers are exercised with real concurrency.
package integration

import (
	"testing"

	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/alg/cc"
	"crcwpram/internal/alg/mis"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

// matrixExecs is every backend, including the untimed trace replay.
var matrixExecs = []machine.Exec{machine.ExecTeam, machine.ExecTrace}

// TestExecInterleavedRoundOffsets drives one kernel instance through the
// backends in rotation with no state reset beyond Prepare: the CAS-LT
// round base must carry across backend switches (a stale claim from a team
// run must never alias a later run's round, and the trace replay must
// consume rounds from the same sequence).
func TestExecInterleavedRoundOffsets(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(150, 600, 23)

	bk := bfs.NewKernel(m, g)
	ck := cc.NewKernel(m, g)
	sk := mis.NewKernel(m, g)
	for rep := 0; rep < 9; rep++ {
		e := matrixExecs[rep%len(matrixExecs)]
		src := uint32(rep * 17 % g.NumVertices())
		bk.Prepare(src)
		if err := bfs.Validate(g, src, bk.RunExec(e, cw.CASLT), true); err != nil {
			t.Fatalf("rep %d bfs under %s: %v", rep, e, err)
		}
		ck.Prepare()
		if err := cc.Validate(g, ck.RunExec(e, cw.CASLT)); err != nil {
			t.Fatalf("rep %d cc under %s: %v", rep, e, err)
		}
		sk.Prepare()
		if err := mis.Validate(g, sk.RunExec(e, cw.CASLT, uint64(rep))); err != nil {
			t.Fatalf("rep %d mis under %s: %v", rep, e, err)
		}
	}
}

// TestExecTraceRecords pins the observability contract: a trace-backend
// run records a structural trace, a timed run clears it.
func TestExecTraceRecords(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(100, 400, 3)
	k := bfs.NewKernel(m, g)

	k.Prepare(0)
	k.RunExec(machine.ExecTrace, cw.CASLT)
	st := k.Trace()
	if st == nil {
		t.Fatal("trace run recorded no trace")
	}
	if st.P != 4 || st.Steps == 0 || st.Barriers == 0 || len(st.Iters) != 4 {
		t.Fatalf("implausible trace: %+v", st)
	}
	if st.TotalIters() < uint64(g.NumVertices()) {
		t.Fatalf("trace counted %d iterations, want at least n=%d", st.TotalIters(), g.NumVertices())
	}

	k.Prepare(0)
	k.RunExec(machine.ExecTeam, cw.CASLT)
	if k.Trace() != nil {
		t.Fatal("timed run left a stale trace")
	}
}
