package graph

import (
	"fmt"
	"testing"
	"testing/quick"
)

func checkCSRInvariants(t *testing.T, g *Graph) {
	t.Helper()
	if err := validateCSR(g); err != nil {
		t.Fatalf("CSR invariant violated: %v", err)
	}
	if g.undirected && g.NumArcs()%2 != 0 {
		t.Fatalf("undirected graph with odd arc count %d", g.NumArcs())
	}
}

func TestFromEdgesSmallUndirected(t *testing.T) {
	// Triangle plus pendant: 0-1, 1-2, 2-0, 2-3
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}}, true)
	checkCSRInvariants(t, g)
	if g.NumVertices() != 4 || g.NumEdges() != 4 || g.NumArcs() != 8 {
		t.Fatalf("n=%d m=%d arcs=%d, want 4/4/8", g.NumVertices(), g.NumEdges(), g.NumArcs())
	}
	wantDeg := []int{2, 2, 3, 1}
	for v, want := range wantDeg {
		if got := g.Degree(uint32(v)); got != want {
			t.Fatalf("degree(%d) = %d, want %d", v, got, want)
		}
	}
	// Adjacency is symmetric.
	for v := 0; v < 4; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			found := false
			for _, w := range g.Neighbors(u) {
				if int(w) == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("arc %d->%d has no reverse", v, u)
			}
		}
	}
}

func TestFromEdgesDirected(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}, {1, 2}, {2, 0}}, false)
	checkCSRInvariants(t, g)
	if g.NumArcs() != 3 || g.NumEdges() != 3 {
		t.Fatalf("arcs=%d edges=%d, want 3/3", g.NumArcs(), g.NumEdges())
	}
	if g.Undirected() {
		t.Fatal("directed graph reports Undirected")
	}
	if g.Degree(0) != 1 || len(g.Neighbors(0)) != 1 || g.Neighbors(0)[0] != 1 {
		t.Fatal("directed adjacency wrong")
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 2}}, true); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := FromEdges(2, []Edge{{5, 0}}, false); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := FromEdges(-1, nil, false); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	orig := []Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 3}} // includes a self-loop
	g := MustFromEdges(4, orig, true)
	back := g.Edges()
	if len(back) != len(orig) {
		t.Fatalf("Edges() returned %d edges, want %d", len(back), len(orig))
	}
	count := func(edges []Edge) map[[2]uint32]int {
		m := map[[2]uint32]int{}
		for _, e := range edges {
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			m[[2]uint32{u, v}]++
		}
		return m
	}
	want, got := count(orig), count(back)
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("edge %v: got %d, want %d", k, got[k], n)
		}
	}
}

func TestRandomUndirectedProperties(t *testing.T) {
	g := RandomUndirected(100, 500, 42)
	checkCSRInvariants(t, g)
	if g.NumVertices() != 100 || g.NumEdges() != 500 {
		t.Fatalf("n=%d m=%d, want 100/500", g.NumVertices(), g.NumEdges())
	}
	// No self-loops.
	for v := 0; v < 100; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if int(u) == v {
				t.Fatalf("self-loop at %d", v)
			}
		}
	}
}

func TestRandomUndirectedDeterministic(t *testing.T) {
	a := RandomUndirected(50, 200, 7)
	b := RandomUndirected(50, 200, 7)
	c := RandomUndirected(50, 200, 8)
	ea, eb, ec := a.Edges(), b.Edges(), c.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same-seed graphs differ in size")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("same-seed graphs differ at edge %d", i)
		}
	}
	same := len(ea) == len(ec)
	if same {
		same = false
		for i := range ea {
			if ea[i] != ec[i] {
				same = false
				break
			}
			same = true
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestConnectedRandomIsConnected(t *testing.T) {
	for _, c := range []struct{ n, m int }{{2, 1}, {10, 9}, {100, 300}, {1000, 5000}} {
		g := ConnectedRandom(c.n, c.m, 11)
		checkCSRInvariants(t, g)
		if g.NumEdges() != c.m {
			t.Fatalf("n=%d: m=%d, want %d", c.n, g.NumEdges(), c.m)
		}
		if comps := CountComponents(g); comps != 1 {
			t.Fatalf("n=%d m=%d: %d components, want 1", c.n, c.m, comps)
		}
	}
}

func TestConnectedRandomRejectsTooFewEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("m < n-1 accepted")
		}
	}()
	ConnectedRandom(10, 5, 1)
}

func TestRMATProperties(t *testing.T) {
	g := RMAT(8, 1000, 0.57, 0.19, 0.19, 3)
	checkCSRInvariants(t, g)
	if g.NumVertices() != 256 {
		t.Fatalf("n = %d, want 256", g.NumVertices())
	}
	if g.NumEdges() != 1000 {
		t.Fatalf("m = %d, want 1000", g.NumEdges())
	}
	// Skew: max degree should well exceed the average for RMAT parameters.
	s := ComputeStats(g)
	if float64(s.MaxDegree) < 2*s.AvgDegree {
		t.Fatalf("RMAT not skewed: max=%d avg=%.2f", s.MaxDegree, s.AvgDegree)
	}
}

func TestStructuredGenerators(t *testing.T) {
	cases := []struct {
		name             string
		g                *Graph
		n, m, components int
		minDeg, maxDeg   int
	}{
		{"star", Star(10), 10, 9, 1, 1, 9},
		{"path", Path(10), 10, 9, 1, 1, 2},
		{"cycle", Cycle(10), 10, 10, 1, 2, 2},
		{"complete", Complete(6), 6, 15, 1, 5, 5},
		{"grid", Grid2D(3, 4), 12, 17, 1, 2, 4},
	}
	for _, c := range cases {
		checkCSRInvariants(t, c.g)
		s := ComputeStats(c.g)
		if s.Vertices != c.n || s.Edges != c.m || s.Components != c.components {
			t.Fatalf("%s: n=%d m=%d comps=%d, want %d/%d/%d", c.name, s.Vertices, s.Edges, s.Components, c.n, c.m, c.components)
		}
		if s.MinDegree != c.minDeg || s.MaxDegree != c.maxDeg {
			t.Fatalf("%s: deg [%d,%d], want [%d,%d]", c.name, s.MinDegree, s.MaxDegree, c.minDeg, c.maxDeg)
		}
	}
}

func TestDisjointCopies(t *testing.T) {
	g := Disjoint(Cycle(5), 4)
	checkCSRInvariants(t, g)
	if g.NumVertices() != 20 || g.NumEdges() != 20 {
		t.Fatalf("n=%d m=%d, want 20/20", g.NumVertices(), g.NumEdges())
	}
	if comps := CountComponents(g); comps != 4 {
		t.Fatalf("components = %d, want 4", comps)
	}
}

func TestComponentLabels(t *testing.T) {
	g := Disjoint(Path(3), 2) // components {0,1,2} and {3,4,5}
	labels := ComponentLabels(g)
	want := []uint32{0, 0, 0, 3, 3, 3}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

// Property: degree sum equals arc count, arc count is twice the edge count
// for undirected builds, and every CSR invariant holds, for random inputs.
func TestQuickCSRInvariants(t *testing.T) {
	f := func(nRaw uint8, mRaw uint16, seed int64) bool {
		n := int(nRaw)%200 + 2
		m := int(mRaw) % 2000
		g := RandomUndirected(n, m, seed)
		if validateCSR(g) != nil {
			return false
		}
		if g.NumArcs() != 2*m {
			return false
		}
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(uint32(v))
		}
		return sum == g.NumArcs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// arcSourceMismatch compares ArcSource with a naive per-arc source array
// on every arc of g and describes the first disagreement, or returns "".
func arcSourceMismatch(g *Graph) string {
	j := 0
	for v := 0; v < g.NumVertices(); v++ {
		for range g.Neighbors(uint32(v)) {
			if got := g.ArcSource(j); got != v {
				return fmt.Sprintf("ArcSource(%d) = %d, want %d", j, got, v)
			}
			j++
		}
	}
	return ""
}

func TestArcSource(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		// Vertices 0, 4 and 8 have degree 0: the search must step over
		// runs of equal offsets at the front, middle and end.
		{"isolated first/middle/last", MustFromEdges(9, []Edge{{1, 2}, {2, 3}, {3, 1}, {5, 6}, {6, 7}, {7, 7}}, true)},
		{"star", Star(33)},
		{"grid", Grid2D(7, 5)},
		{"rmat multigraph", RMAT(9, 4000, 0.57, 0.19, 0.19, 5)},
	}
	for _, c := range cases {
		if msg := arcSourceMismatch(c.g); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
	}
}
