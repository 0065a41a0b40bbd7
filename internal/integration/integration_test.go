// Package integration holds cross-module tests: scenarios that exercise
// the machine, the concurrent-write primitives, the access-mode checker,
// the graph substrate (including serialization) and the kernels together,
// the way a downstream application would.
package integration

import (
	"bytes"
	"testing"

	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/alg/cc"
	"crcwpram/internal/alg/maxfind"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/memcheck"
	"crcwpram/internal/sched"
)

func testMachine(t *testing.T, p int) *machine.Machine {
	t.Helper()
	m := machine.New(p)
	t.Cleanup(m.Close)
	return m
}

// The paper's Figure 4 kernel run on memcheck-instrumented shared memory:
// the CAS-LT-guarded common write conforms to the CRCW-common access mode
// (in fact to CREW: one winner per cell per round), while the naive version
// of an *arbitrary* write on the same machine is detected.
func TestMaxKernelThroughAccessChecker(t *testing.T) {
	const n = 24
	m := testMachine(t, 4)
	list := []uint32{}
	for i := 0; i < n; i++ {
		list = append(list, uint32((i*7)%13))
	}

	// CAS-LT-guarded all-pairs elimination on a checked array: with a
	// winner per cell per round, even CREW's one-write-per-cell rule holds.
	checked := memcheck.New(memcheck.CREW, n)
	for i := 0; i < n; i++ {
		checked.Write(i, 1)
		checked.NextRound()
	}
	cells := cw.NewArray(n, cw.Packed)
	m.ParallelRange(n*n, func(lo, hi, _ int) {
		for idx := lo; idx < hi; idx++ {
			i, j := idx/n, idx%n
			if i == j {
				continue
			}
			loser := i
			if list[j] < list[i] || (list[i] == list[j] && j < i) {
				loser = j
			}
			if cells.TryClaim(loser, 1) {
				checked.Write(loser, 0)
			}
		}
	})
	if !checked.Ok() {
		t.Fatalf("CAS-LT-guarded kernel violated CREW: %v", checked.Violations())
	}
	checked.NextRound()
	max := -1
	for j := 0; j < n; j++ {
		if checked.Read(j) == 1 {
			max = j
		}
	}
	if want := maxfind.Sequential(list); max != want {
		t.Fatalf("checked kernel found %d, want %d", max, want)
	}
	if !checked.Ok() {
		t.Fatalf("final scan violated CREW: %v", checked.Violations())
	}

	// The same shape done naively with *different* values (an arbitrary
	// write) is caught by the common-mode checker — the paper's Section 4
	// hazard, demonstrated through the real machine.
	bad := memcheck.New(memcheck.CRCWCommon, 1)
	m.ParallelFor(64, func(i int) {
		bad.Write(0, uint32(i))
	})
	if bad.Ok() {
		t.Fatal("naive arbitrary write on the machine went undetected")
	}
}

// Graph pipeline: generate -> serialize -> deserialize -> run both graph
// kernels on the round-tripped graph -> validate against baselines.
func TestSerializedGraphThroughKernels(t *testing.T) {
	g := graph.ConnectedRandom(300, 1200, 77)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}

	m := testMachine(t, 4)
	bk := bfs.NewKernel(m, loaded)
	bk.Prepare(3)
	if err := bfs.Validate(loaded, 3, bk.Run(cw.CASLT), true); err != nil {
		t.Fatalf("bfs on round-tripped graph: %v", err)
	}
	ck := cc.NewKernel(m, loaded)
	ck.Prepare()
	if err := cc.Validate(loaded, ck.Run(cw.CASLT)); err != nil {
		t.Fatalf("cc on round-tripped graph: %v", err)
	}
}

// One machine drives all three kernels back to back across scheduling
// policies: shared worker pools must not leak state between kernels.
func TestOneMachineManyKernels(t *testing.T) {
	for _, policy := range sched.Policies {
		m := machine.New(4, machine.WithPolicy(policy), machine.WithChunk(64))
		g := graph.ConnectedRandom(150, 600, 5)
		list := make([]uint32, 200)
		for i := range list {
			list[i] = uint32((i * 31) % 97)
		}

		mk := maxfind.NewKernel(m, len(list))
		bk := bfs.NewKernel(m, g)
		ck := cc.NewKernel(m, g)
		for rep := 0; rep < 3; rep++ {
			mk.Prepare(list)
			if got, want := mk.Run(cw.CASLT), maxfind.Sequential(list); got != want {
				t.Fatalf("%v rep %d: max %d, want %d", policy, rep, got, want)
			}
			bk.Prepare(0)
			if err := bfs.Validate(g, 0, bk.Run(cw.CASLT), true); err != nil {
				t.Fatalf("%v rep %d: bfs: %v", policy, rep, err)
			}
			ck.Prepare()
			if err := cc.Validate(g, ck.Run(cw.CASLT)); err != nil {
				t.Fatalf("%v rep %d: cc: %v", policy, rep, err)
			}
		}
		m.Close()
	}
}

// Awerbuch-Shiloach and random mate must induce the same partition on the
// same inputs (labels differ; the partition must not).
func TestASAndRandMateAgree(t *testing.T) {
	m := testMachine(t, 4)
	for _, seed := range []int64{1, 2, 3} {
		g := graph.Disjoint(graph.ConnectedRandom(60, 200, seed), 3)
		k := cc.NewKernel(m, g)
		k.Prepare()
		as := append([]uint32(nil), k.Run(cw.CASLT).Labels...)
		k.Prepare()
		rm := k.RunRandMate(uint64(seed))
		// Same partition: labels agree up to bijection.
		fwd := map[uint32]uint32{}
		rev := map[uint32]uint32{}
		for v := range as {
			a, b := as[v], rm.Labels[v]
			if x, ok := fwd[a]; ok && x != b {
				t.Fatalf("seed %d: partitions differ at vertex %d", seed, v)
			}
			if x, ok := rev[b]; ok && x != a {
				t.Fatalf("seed %d: partitions differ at vertex %d", seed, v)
			}
			fwd[a] = b
			rev[b] = a
		}
	}
}

// The BFS tree's levels must agree with CC reachability: vertices with
// finite BFS level are exactly the source's component.
func TestBFSLevelsMatchCCComponent(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.Disjoint(graph.ConnectedRandom(80, 250, 11), 2)
	bk := bfs.NewKernel(m, g)
	bk.Prepare(0)
	br := bk.Run(cw.CASLT)
	ck := cc.NewKernel(m, g)
	ck.Prepare()
	cr := ck.Run(cw.CASLT)
	src := cr.Labels[0]
	for v := 0; v < g.NumVertices(); v++ {
		reachable := br.Level[v] != bfs.Unreached
		sameComp := cr.Labels[v] == src
		if reachable != sameComp {
			t.Fatalf("vertex %d: BFS reachable=%v but CC same-component=%v", v, reachable, sameComp)
		}
	}
}
