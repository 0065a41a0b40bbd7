package bfs

import (
	"testing"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

// directionGraphs is the ISSUE's cross-validation corpus for the
// direction-optimizing variants: hub-skewed, regular, power-law and
// disconnected shapes.
func directionGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"star":     graph.Star(64),
		"grid":     graph.Grid2D(8, 9),
		"rmat":     graph.RMAT(7, 500, 0.57, 0.19, 0.19, 9),
		"disjoint": graph.Disjoint(graph.ConnectedRandom(50, 120, 5), 3),
	}
}

// checkPullResult validates a pull/hybrid result: exact levels vs
// Sequential (via ValidateBidir) and level-for-level equality with the
// CAS-LT push result on the same graph.
func checkPullResult(t *testing.T, g *graph.Graph, source uint32, r Result, push Result, tag string) {
	t.Helper()
	if err := ValidateBidir(g, source, r); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	for u := range r.Level {
		if r.Level[u] != push.Level[u] {
			t.Fatalf("%s: level[%d] = %d, push CAS-LT has %d", tag, u, r.Level[u], push.Level[u])
		}
	}
	if r.Depth != push.Depth {
		t.Fatalf("%s: depth %d, push CAS-LT has %d", tag, r.Depth, push.Depth)
	}
}

// TestPullHybridMatchPush is the full cross-validation matrix: pull and
// hybrid, vertex and edge balance, P in {1,2,4,8}, against
// the CAS-LT push result and the sequential baseline. It runs under -short
// and -race as well — the pull path's exclusive writes and the hybrid's
// direction switches are exactly what the race detector should see.
func TestPullHybridMatchPush(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		m := testMachine(t, p)
		for name, g := range directionGraphs() {
			for _, bal := range graph.Balances {
				// Fresh kernel per balance so lazily-built shards match.
				k := NewKernel(m, g)
				k.SetBalance(bal)
				k.Prepare(0)
				push := k.Run(cw.CASLT)
				pushLevels := append([]uint32(nil), push.Level...)
				push.Level = pushLevels
				runs := map[string]func() Result{
					"pull":   k.RunCASLTPull,
					"hybrid": k.RunCASLTHybrid,
				}
				for kind, run := range runs {
					k.Prepare(0)
					r := run()
					tag := name + "/" + bal.String() + "/" + kind
					checkPullResult(t, g, 0, r, push, tag)
				}
			}
		}
	}
}

// TestPullHybridNonZeroSource exercises a leaf source on the star (the
// worst straggler case: the hub is the entire level-1 frontier) and an
// interior source on the grid.
func TestPullHybridNonZeroSource(t *testing.T) {
	cases := map[string]struct {
		g   *graph.Graph
		src uint32
	}{
		"star-leaf": {graph.Star(64), 63},
		"grid-mid":  {graph.Grid2D(8, 9), 35},
		"rmat-mid":  {graph.RMAT(7, 500, 0.57, 0.19, 0.19, 9), 100},
	}
	m := testMachine(t, 4)
	for name, tc := range cases {
		for _, bal := range graph.Balances {
			k := NewKernel(m, tc.g)
			k.SetBalance(bal)
			k.Prepare(tc.src)
			push := k.Run(cw.CASLT)
			pushLevels := append([]uint32(nil), push.Level...)
			push.Level = pushLevels
			for kind, run := range map[string]func() Result{
				"pull":   k.RunCASLTPull,
				"hybrid": k.RunCASLTHybrid,
			} {
				k.Prepare(tc.src)
				r := run()
				checkPullResult(t, tc.g, tc.src, r, push, name+"/"+bal.String()+"/"+kind)
			}
		}
	}
}

// TestEdgeBalancedPushMatchesVertex checks that every push variant yields a
// valid strict result under edge balance, and that repeated mixed runs on
// one kernel (push, frontier, hybrid interleaved — all sharing the CAS-LT
// cells via the machine's round ids) stay correct with no cell reset.
func TestEdgeBalancedPushMatchesVertex(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		m := testMachine(t, p)
		for name, gr := range testGraphs() {
			k := NewKernel(m, gr)
			k.SetBalance(graph.BalanceEdge)
			k.Prepare(0)
			if err := Validate(gr, 0, k.Run(cw.CASLT), true); err != nil {
				t.Fatalf("p=%d %s edge sweep: %v", p, name, err)
			}
			k.Prepare(0)
			if err := Validate(gr, 0, k.RunCASLTFrontier(), true); err != nil {
				t.Fatalf("p=%d %s edge frontier: %v", p, name, err)
			}
			k.Prepare(0)
			if err := Validate(gr, 0, k.RunExec(machine.ExecTeam, cw.CASLT), true); err != nil {
				t.Fatalf("p=%d %s edge team sweep: %v", p, name, err)
			}
			k.Prepare(0)
			if err := Validate(gr, 0, k.RunCASLTFrontierExec(machine.ExecTeam), true); err != nil {
				t.Fatalf("p=%d %s edge team frontier: %v", p, name, err)
			}
			if gr.Undirected() {
				k.Prepare(0)
				if err := ValidateBidir(gr, 0, k.RunCASLTHybrid()); err != nil {
					t.Fatalf("p=%d %s edge hybrid after push runs: %v", p, name, err)
				}
			}
		}
	}
}

// TestHybridRepeatedRuns checks the round-offset bookkeeping across
// repeated hybrid runs (pull levels consume no rounds; push levels must
// still never collide with a previous run's claims).
func TestHybridRepeatedRuns(t *testing.T) {
	m := testMachine(t, 4)
	gr := graph.ConnectedRandom(120, 500, 31)
	k := NewKernel(m, gr)
	k.SetBalance(graph.BalanceEdge)
	for rep := 0; rep < 10; rep++ {
		src := uint32(rep * 13 % gr.NumVertices())
		k.Prepare(src)
		var r Result
		switch rep % 3 {
		case 0:
			r = k.RunCASLTHybrid()
		case 1:
			r = k.RunCASLTHybridExec(machine.ExecTeam)
		case 2:
			r = k.RunCASLTFrontier()
		}
		if rep%3 == 2 {
			if err := Validate(gr, src, r, true); err != nil {
				t.Fatalf("rep %d: %v", rep, err)
			}
		} else if err := ValidateBidir(gr, src, r); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
}

// TestPullRejectsDirected pins the symmetric-graph guard.
func TestPullRejectsDirected(t *testing.T) {
	gr, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, false)
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, 2)
	k := NewKernel(m, gr)
	k.Prepare(0)
	defer func() {
		if recover() == nil {
			t.Fatal("pull on a directed graph did not panic")
		}
	}()
	k.RunCASLTPull()
}
