package cc

import (
	"testing"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

func TestRunResolverAllMethods(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.RandomUndirected(200, 600, 53)
	k := NewKernel(m, g)
	for _, method := range []cw.Method{cw.CASLT, cw.Gatekeeper, cw.GatekeeperChecked, cw.Mutex} {
		r := cw.NewResolver(method, g.NumVertices(), cw.Packed)
		k.Prepare()
		res := k.RunResolver(r)
		if err := Validate(g, res); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
	}
}

// TestRunResolverCounting checks the claims a gatekeeper resolver records
// on the metrics shards over a whole run: every attempt is an RMW, none is
// skipped, and the wins cover the committed hooks.
func TestRunResolverCounting(t *testing.T) {
	m := machine.New(4, machine.WithMetrics())
	t.Cleanup(m.Close)
	g := graph.ConnectedRandom(150, 500, 59)
	k := NewKernel(m, g)

	k.Prepare()
	m.Metrics().Reset()
	res := k.RunResolver(cw.NewResolver(cw.Gatekeeper, g.NumVertices(), cw.Packed))
	if err := Validate(g, res); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	// Connected graph: exactly n-1 hooks win across the whole run. The
	// resolver reports a "win" whenever the gate admits a claimant, which
	// can exceed committed hooks only via the root re-verification; hook
	// records are the ground truth.
	hooks := 0
	for _, e := range res.HookEdge {
		if e != NoHook {
			hooks++
		}
	}
	if hooks != g.NumVertices()-1 {
		t.Fatalf("hooks = %d, want %d", hooks, g.NumVertices()-1)
	}
	if s.CASWins < uint64(hooks) {
		t.Fatalf("resolver wins %d < committed hooks %d", s.CASWins, hooks)
	}
	if s.CASAttempts < s.CASWins {
		t.Fatalf("RMWs %d < wins %d", s.CASAttempts, s.CASWins)
	}
	if s.PrecheckSkips != 0 {
		t.Fatalf("the plain gatekeeper skipped %d attempts", s.PrecheckSkips)
	}
}

func TestRunResolverRejectsSmallResolver(t *testing.T) {
	m := testMachine(t, 1)
	g := graph.Cycle(10)
	k := NewKernel(m, g)
	k.Prepare()
	defer func() {
		if recover() == nil {
			t.Fatal("undersized resolver accepted")
		}
	}()
	k.RunResolver(cw.NewResolver(cw.CASLT, 3, cw.Packed))
}
