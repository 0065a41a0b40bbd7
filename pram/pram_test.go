package pram_test

import (
	"sync/atomic"
	"testing"

	"crcwpram/pram"
)

// The doc-comment example, end to end: an arbitrary concurrent write in
// which exactly one virtual processor per target commits.
func TestQuickstartPattern(t *testing.T) {
	const n = 64
	const writersPerTarget = 8
	m := pram.NewMachine(4)
	defer m.Close()

	cells := pram.NewCellArray(n, pram.Packed)
	m.Stamp(cells)
	data := make([]uint32, n)
	writes := make([]atomic.Int32, n)

	round := m.NextRound()
	m.ParallelFor(n*writersPerTarget, func(i int) {
		target := i % n
		if cells.TryClaim(target, round) {
			data[target] = uint32(i) // arbitrary CW: different writers, one winner
			writes[target].Add(1)
		}
	})
	for i := 0; i < n; i++ {
		if w := writes[i].Load(); w != 1 {
			t.Fatalf("target %d written %d times, want exactly 1", i, w)
		}
		if int(data[i])%n != i {
			t.Fatalf("target %d holds %d, not one of its writers' values", i, data[i])
		}
	}

	// Next round: advance the round id, no re-initialization needed.
	round = m.NextRound()
	m.ParallelFor(n, func(i int) {
		cells.TryClaim(i, round)
	})
	for i := 0; i < n; i++ {
		if !cells.Cell(i).Written(round) {
			t.Fatalf("cell %d not claimed in round 2", i)
		}
	}
}

func TestMethodSurface(t *testing.T) {
	for _, m := range pram.Methods {
		got, ok := pram.ParseMethod(m.String())
		if !ok || got != m {
			t.Fatalf("ParseMethod(%q) failed", m.String())
		}
	}
	if pram.CASLT.NeedsReset() {
		t.Fatal("CASLT claims to need reset")
	}
	if !pram.Gatekeeper.NeedsReset() {
		t.Fatal("Gatekeeper claims to need no reset")
	}
	if pram.Naive.SafeForArbitrary() {
		t.Fatal("Naive claims arbitrary-CW safety")
	}
}

func TestResolverSurface(t *testing.T) {
	r := pram.NewResolver(pram.CASLT, 4, pram.Padded)
	ran := false
	if !r.Do(2, 1, func() { ran = true }) || !ran {
		t.Fatal("resolver Do did not execute winning write")
	}
	if r.Do(2, 1, func() {}) {
		t.Fatal("second winner for same target/round")
	}
}

func TestMachineOptionsSurface(t *testing.T) {
	m := pram.NewMachine(2,
		pram.WithPolicy(pram.Dynamic),
		pram.WithChunk(8),
		pram.WithBarrier(pram.BarrierTree),
	)
	defer m.Close()
	var n atomic.Int32
	m.ParallelFor(100, func(int) { n.Add(1) })
	if n.Load() != 100 {
		t.Fatalf("visited %d, want 100", n.Load())
	}
}

func TestGraphSurface(t *testing.T) {
	g, err := pram.FromEdges(3, []pram.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatal("FromEdges surface broken")
	}
	if pram.ConnectedRandom(10, 20, 1).NumEdges() != 20 {
		t.Fatal("ConnectedRandom surface broken")
	}
	if pram.RandomUndirected(10, 5, 1).NumVertices() != 10 {
		t.Fatal("RandomUndirected surface broken")
	}
	if pram.RMAT(4, 10, 0.57, 0.19, 0.19, 1).NumVertices() != 16 {
		t.Fatal("RMAT surface broken")
	}
}
