package bfs

import (
	"testing"
	"testing/quick"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/race"
)

var selectionMethods = []cw.Method{cw.CASLT, cw.Gatekeeper, cw.GatekeeperChecked, cw.Mutex}

func testMachine(t *testing.T, p int) *machine.Machine {
	t.Helper()
	m := machine.New(p)
	t.Cleanup(m.Close)
	return m
}

func TestSequentialPath(t *testing.T) {
	g := graph.Path(5)
	r := Sequential(g, 0)
	wantLevel := []uint32{0, 1, 2, 3, 4}
	for i, w := range wantLevel {
		if r.Level[i] != w {
			t.Fatalf("level = %v, want %v", r.Level, wantLevel)
		}
	}
	if r.Depth != 4 {
		t.Fatalf("depth = %d, want 4", r.Depth)
	}
	if r.Parent[0] != Unreached || r.Parent[3] != 2 {
		t.Fatalf("parents wrong: %v", r.Parent)
	}
	if err := Validate(g, 0, r, true); err != nil {
		t.Fatalf("sequential result invalid: %v", err)
	}
}

func TestSequentialDisconnected(t *testing.T) {
	g := graph.Disjoint(graph.Path(3), 2) // {0,1,2} and {3,4,5}
	r := Sequential(g, 0)
	for u := 3; u < 6; u++ {
		if r.Level[u] != Unreached {
			t.Fatalf("vertex %d reached across components", u)
		}
	}
	if err := Validate(g, 0, r, true); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":         graph.Path(40),
		"cycle":        graph.Cycle(31),
		"star":         graph.Star(64),
		"complete":     graph.Complete(20),
		"grid":         graph.Grid2D(8, 9),
		"random":       graph.ConnectedRandom(200, 800, 17),
		"random-multi": graph.RandomUndirected(150, 400, 23),
		"disconnected": graph.Disjoint(graph.ConnectedRandom(50, 120, 5), 3),
		"rmat":         graph.RMAT(7, 500, 0.57, 0.19, 0.19, 9),
	}
}

func TestSelectionMethodsMatchSequential(t *testing.T) {
	for _, p := range []int{1, 4} {
		m := testMachine(t, p)
		for name, g := range testGraphs() {
			k := NewKernel(m, g)
			for _, method := range selectionMethods {
				k.Prepare(0)
				r := k.Run(method)
				if err := Validate(g, 0, r, true); err != nil {
					t.Fatalf("p=%d %s %v: %v", p, name, method, err)
				}
			}
		}
	}
}

func TestNaiveMatchesSequentialLevels(t *testing.T) {
	if race.Enabled {
		t.Skip("naive variant is intentionally racy; skipped under -race")
	}
	m := testMachine(t, 4)
	for name, g := range testGraphs() {
		k := NewKernel(m, g)
		k.Prepare(0)
		r := k.Run(cw.Naive)
		// Non-strict: levels exact, parent/edge independently valid, tuple
		// may be torn.
		if err := Validate(g, 0, r, false); err != nil {
			t.Fatalf("%s naive: %v", name, err)
		}
	}
}

// Repeated CAS-LT runs reuse the cells without any reset, via the round
// offset; every run must stay correct, including from different sources.
func TestCASLTRepeatedRunsNoCellReset(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(120, 500, 31)
	k := NewKernel(m, g)
	for rep := 0; rep < 10; rep++ {
		src := uint32(rep * 11 % g.NumVertices())
		k.Prepare(src)
		r := k.Run(cw.CASLT)
		if err := Validate(g, src, r, true); err != nil {
			t.Fatalf("rep %d src %d: %v", rep, src, err)
		}
	}
}

func TestGatekeeperRepeatedRuns(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(120, 500, 37)
	k := NewKernel(m, g)
	for rep := 0; rep < 5; rep++ {
		src := uint32(rep * 7 % g.NumVertices())
		k.Prepare(src)
		r := k.Run(cw.Gatekeeper)
		if err := Validate(g, src, r, true); err != nil {
			t.Fatalf("rep %d src %d: %v", rep, src, err)
		}
	}
}

func TestPrepareRejectsBadSource(t *testing.T) {
	m := testMachine(t, 1)
	k := NewKernel(m, graph.Path(4))
	defer func() {
		if recover() == nil {
			t.Fatal("bad source did not panic")
		}
	}()
	k.Prepare(4)
}

func TestDepthValues(t *testing.T) {
	m := testMachine(t, 2)
	cases := []struct {
		g    *graph.Graph
		want int
	}{
		{graph.Path(10), 9},
		{graph.Star(10), 1},
		{graph.Complete(10), 1},
		{graph.Cycle(10), 5},
	}
	for _, c := range cases {
		k := NewKernel(m, c.g)
		k.Prepare(0)
		if r := k.Run(cw.CASLT); r.Depth != c.want {
			t.Fatalf("depth = %d, want %d", r.Depth, c.want)
		}
	}
}

func TestValidateRejectsCorruptedResults(t *testing.T) {
	g := graph.ConnectedRandom(60, 200, 41)
	m := testMachine(t, 2)
	k := NewKernel(m, g)

	corrupt := func(f func(r Result)) error {
		k.Prepare(0)
		r := k.Run(cw.CASLT)
		f(r)
		return Validate(g, 0, r, true)
	}

	if err := corrupt(func(r Result) {}); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	if err := corrupt(func(r Result) { r.Level[10]++ }); err == nil {
		t.Fatal("wrong level accepted")
	}
	if err := corrupt(func(r Result) { r.Parent[10] = Unreached }); err == nil {
		t.Fatal("missing parent accepted")
	}
	if err := corrupt(func(r Result) { r.SelEdge[10] = r.SelEdge[20] }); err == nil {
		t.Fatal("foreign selEdge accepted")
	}
}

// A torn tuple — parent from one discoverer, edge from another — passes the
// non-strict validator but fails the strict one. Construct it on a 4-cycle
// where vertex 2 is discoverable from both 1 and 3.
func TestValidateStrictCatchesTornTuple(t *testing.T) {
	g := graph.Cycle(4)
	r := Sequential(g, 0)
	// Sequential discovered 2 via one of its neighbors; re-point the parent
	// to the other while keeping the edge — a torn tuple.
	other := uint32(3)
	if r.Parent[2] == 3 {
		other = 1
	}
	r.Parent[2] = other
	if err := Validate(g, 0, r, true); err == nil {
		t.Fatal("strict validation accepted a torn tuple")
	}
	if err := Validate(g, 0, r, false); err != nil {
		t.Fatalf("non-strict validation rejected a level-consistent torn tuple: %v", err)
	}
}

// Property: on random connected graphs all selection methods agree with
// Sequential, for random sources.
func TestQuickSelectionMethodsAgree(t *testing.T) {
	m := testMachine(t, 4)
	f := func(nRaw uint8, mRaw uint16, seed int64, srcRaw uint8) bool {
		n := int(nRaw)%150 + 2
		edges := int(mRaw)%600 + n
		g := graph.ConnectedRandom(n, edges, seed)
		src := uint32(int(srcRaw) % n)
		k := NewKernel(m, g)
		for _, method := range selectionMethods {
			k.Prepare(src)
			if Validate(g, src, k.Run(method), true) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
