package bfs

import (
	"testing"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

func TestRunResolverAllMethods(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(200, 800, 41)
	k := NewKernel(m, g)
	for _, method := range selectionMethods {
		r := cw.NewResolver(method, g.NumVertices(), cw.Packed)
		k.Prepare(0)
		res := k.RunResolver(r)
		if err := Validate(g, 0, res, true); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
	}
}

// TestRunResolverCountsMatchRun checks that the generic-resolver path
// records the same winners and rounds on the metrics shards as Run: every
// vertex except the source is discovered by exactly one win, and each
// level is one round.
func TestRunResolverCountsMatchRun(t *testing.T) {
	m := machine.New(4, machine.WithMetrics())
	t.Cleanup(m.Close)
	g := graph.ConnectedRandom(150, 500, 43)
	k := NewKernel(m, g)
	runs := []struct {
		name string
		run  func() Result
	}{
		{"RunResolver", func() Result { return k.RunResolver(cw.NewResolver(cw.CASLT, g.NumVertices(), cw.Packed)) }},
		{"Run", func() Result { return k.Run(cw.CASLT) }},
	}
	var rounds [2]uint64
	for i, r := range runs {
		k.Prepare(0)
		m.Metrics().Reset()
		if err := Validate(g, 0, r.run(), true); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		sn := m.Snapshot()
		if wins, want := sn.CASWins, uint64(g.NumVertices()-1); wins != want {
			t.Fatalf("%s: wins = %d, want %d", r.name, wins, want)
		}
		rounds[i] = sn.Rounds
	}
	if rounds[0] != rounds[1] || rounds[0] == 0 {
		t.Fatalf("RunResolver recorded %d rounds, Run %d", rounds[0], rounds[1])
	}
}

func TestRunResolverGatekeeperNeedsItsResets(t *testing.T) {
	// RunResolver must perform the per-level resets for gatekeeper
	// resolvers; a multi-level graph exercises them.
	m := testMachine(t, 2)
	g := graph.Path(30)
	k := NewKernel(m, g)
	r := cw.NewResolver(cw.Gatekeeper, g.NumVertices(), cw.Packed)
	k.Prepare(0)
	res := k.RunResolver(r)
	if res.Depth != 29 {
		t.Fatalf("depth = %d, want 29", res.Depth)
	}
	if err := Validate(g, 0, res, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunResolverRejectsSmallResolver(t *testing.T) {
	m := testMachine(t, 1)
	g := graph.Path(10)
	k := NewKernel(m, g)
	k.Prepare(0)
	defer func() {
		if recover() == nil {
			t.Fatal("undersized resolver accepted")
		}
	}()
	k.RunResolver(cw.NewResolver(cw.CASLT, 5, cw.Packed))
}
