package cc

import (
	"testing"
	"testing/quick"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

var methods = []cw.Method{cw.CASLT, cw.Gatekeeper, cw.GatekeeperChecked, cw.Mutex}

func testMachine(t *testing.T, p int) *machine.Machine {
	t.Helper()
	m := machine.New(p)
	t.Cleanup(m.Close)
	return m
}

func TestSequentialLabels(t *testing.T) {
	g := graph.Disjoint(graph.Path(3), 2) // {0,1,2} {3,4,5}
	labels := SequentialLabels(g)
	want := []uint32{0, 0, 0, 3, 3, 3}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"singletons":   graph.MustFromEdges(8, nil, true),
		"one-edge":     graph.MustFromEdges(4, []graph.Edge{{U: 1, V: 2}}, true),
		"path":         graph.Path(60),
		"cycle":        graph.Cycle(45),
		"star":         graph.Star(80),
		"complete":     graph.Complete(24),
		"grid":         graph.Grid2D(9, 11),
		"random":       graph.ConnectedRandom(250, 900, 19),
		"random-multi": graph.RandomUndirected(200, 500, 29),
		"disconnected": graph.Disjoint(graph.ConnectedRandom(60, 150, 7), 4),
		"two-stars":    graph.Disjoint(graph.Star(30), 2),
		"rmat":         graph.RMAT(7, 600, 0.57, 0.19, 0.19, 13),
	}
}

func TestAllMethodsMatchUnionFind(t *testing.T) {
	for _, p := range []int{1, 4} {
		m := testMachine(t, p)
		for name, g := range testGraphs() {
			k := NewKernel(m, g)
			for _, method := range methods {
				k.Prepare()
				r := k.Run(method)
				if err := Validate(g, r); err != nil {
					t.Fatalf("p=%d %s %v: %v", p, name, method, err)
				}
				if r.Iterations < 1 {
					t.Fatalf("p=%d %s %v: %d iterations", p, name, method, r.Iterations)
				}
			}
		}
	}
}

func TestCASLTRepeatedRunsNoCellReset(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(150, 600, 43)
	k := NewKernel(m, g)
	for rep := 0; rep < 10; rep++ {
		k.Prepare()
		r := k.Run(cw.CASLT)
		if err := Validate(g, r); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
}

func TestGatekeeperRepeatedRuns(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(150, 600, 47)
	k := NewKernel(m, g)
	for rep := 0; rep < 5; rep++ {
		k.Prepare()
		if err := Validate(g, k.Run(cw.Gatekeeper)); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
}

func TestNaivePanics(t *testing.T) {
	m := testMachine(t, 1)
	k := NewKernel(m, graph.Path(4))
	k.Prepare()
	defer func() {
		if recover() == nil {
			t.Fatal("Run(Naive) did not panic; naive arbitrary CW must be rejected")
		}
	}()
	k.Run(cw.Naive)
}

func TestDirectedGraphRejected(t *testing.T) {
	m := testMachine(t, 1)
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("directed graph accepted")
		}
	}()
	NewKernel(m, g)
}

func TestHookForestSizes(t *testing.T) {
	m := testMachine(t, 4)
	// 4 components of 25 vertices each: expect exactly 4*24 hooks.
	g := graph.Disjoint(graph.ConnectedRandom(25, 60, 3), 4)
	k := NewKernel(m, g)
	k.Prepare()
	r := k.Run(cw.CASLT)
	hooks := 0
	for _, e := range r.HookEdge {
		if e != NoHook {
			hooks++
		}
	}
	if hooks != 96 {
		t.Fatalf("hooks = %d, want 96", hooks)
	}
	if err := Validate(g, r); err != nil {
		t.Fatal(err)
	}
}

func TestSingletonGraph(t *testing.T) {
	m := testMachine(t, 2)
	g := graph.MustFromEdges(1, nil, true)
	k := NewKernel(m, g)
	for _, method := range methods {
		k.Prepare()
		r := k.Run(method)
		if r.Labels[0] != 0 {
			t.Fatalf("%v: label = %d, want 0", method, r.Labels[0])
		}
		if r.HookEdge[0] != NoHook {
			t.Fatalf("%v: singleton recorded a hook", method)
		}
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	m := testMachine(t, 2)
	g := graph.Disjoint(graph.Cycle(10), 2)
	k := NewKernel(m, g)

	fresh := func() Result {
		k.Prepare()
		return k.Run(cw.CASLT)
	}

	r := fresh()
	if err := Validate(g, r); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}

	r = fresh()
	r.Labels[3] = r.Labels[15] // merge two true components
	if Validate(g, r) == nil {
		t.Fatal("cross-component label accepted")
	}

	r = fresh()
	// Split one component: relabel vertex 3 to itself (making a bogus root).
	if r.Labels[3] != 3 {
		r.Labels[3] = 3
		if Validate(g, r) == nil {
			t.Fatal("split component accepted")
		}
	}

	r = fresh()
	// Erase one hook record: forest no longer spans.
	for v, e := range r.HookEdge {
		if e != NoHook {
			r.HookEdge[v] = NoHook
			break
		}
	}
	if Validate(g, r) == nil {
		t.Fatal("missing hook record accepted")
	}
}

// Stress: many repetitions on a collision-heavy graph (star) where every
// hooking round contends on one root cell.
func TestStarStress(t *testing.T) {
	m := testMachine(t, 8)
	g := graph.Star(500)
	k := NewKernel(m, g)
	for rep := 0; rep < 10; rep++ {
		k.Prepare()
		for _, method := range methods {
			k.Prepare()
			if err := Validate(g, k.Run(method)); err != nil {
				t.Fatalf("rep %d %v: %v", rep, method, err)
			}
		}
	}
}

// Property: all methods produce the true partition on random multigraphs
// (connected or not).
func TestQuickAllMethodsCorrect(t *testing.T) {
	m := testMachine(t, 4)
	f := func(nRaw uint8, mRaw uint16, seed int64) bool {
		n := int(nRaw)%120 + 2
		edges := int(mRaw) % 500
		g := graph.RandomUndirected(n, edges, seed)
		k := NewKernel(m, g)
		for _, method := range methods {
			k.Prepare()
			if Validate(g, k.Run(method)) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
