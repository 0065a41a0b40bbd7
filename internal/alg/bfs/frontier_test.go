package bfs

import (
	"slices"
	"testing"
	"testing/quick"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

func TestFrontierMatchesSequential(t *testing.T) {
	for _, p := range []int{1, 4} {
		m := testMachine(t, p)
		for name, g := range testGraphs() {
			k := NewKernel(m, g)
			k.Prepare(0)
			r := k.RunCASLTFrontier()
			if err := Validate(g, 0, r, true); err != nil {
				t.Fatalf("p=%d %s: %v", p, name, err)
			}
		}
	}
}

func TestFrontierAgreesWithSweepVariant(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(300, 1500, 13)
	k := NewKernel(m, g)
	k.Prepare(5)
	sweep := k.Run(cw.CASLT)
	sweepLevels := append([]uint32(nil), sweep.Level...)
	k.Prepare(5)
	front := k.RunCASLTFrontier()
	if sweep.Depth != front.Depth {
		t.Fatalf("depths differ: sweep %d, frontier %d", sweep.Depth, front.Depth)
	}
	for v := range sweepLevels {
		if sweepLevels[v] != front.Level[v] {
			t.Fatalf("level[%d]: sweep %d, frontier %d", v, sweepLevels[v], front.Level[v])
		}
	}
}

func TestFrontierRepeatedRunsAndSources(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(200, 900, 17)
	k := NewKernel(m, g)
	for rep := 0; rep < 8; rep++ {
		src := uint32(rep * 13 % g.NumVertices())
		k.Prepare(src)
		if err := Validate(g, src, k.RunCASLTFrontier(), true); err != nil {
			t.Fatalf("rep %d src %d: %v", rep, src, err)
		}
	}
}

func TestFrontierInterleavedWithOtherVariants(t *testing.T) {
	// The frontier variant shares the CAS-LT cells with the sweep variant;
	// interleaving them must keep the round-id discipline intact.
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(150, 500, 23)
	k := NewKernel(m, g)
	for rep := 0; rep < 6; rep++ {
		k.Prepare(0)
		var r Result
		if rep%2 == 0 {
			r = k.RunCASLTFrontier()
		} else {
			r = k.Run(cw.CASLT)
		}
		if err := Validate(g, 0, r, true); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
}

func TestFrontierMemoryStaysLinear(t *testing.T) {
	m := testMachine(t, 4)
	g := graph.ConnectedRandom(1000, 4000, 29)
	k := NewKernel(m, g)
	if k.frontierStateBytes() != 0 {
		t.Fatal("frontier state allocated before first use")
	}
	for rep := 0; rep < 5; rep++ {
		k.Prepare(0)
		k.RunCASLTFrontier()
	}
	// The two sets of per-worker buffers: comfortably under ~16 bytes per
	// vertex plus slack.
	if got, limit := k.frontierStateBytes(), 16*g.NumVertices()+4096; got > limit {
		t.Fatalf("frontier state %d bytes exceeds %d", got, limit)
	}
	// The team backend shares the same state; running under it must not
	// allocate a second copy.
	for rep := 0; rep < 5; rep++ {
		k.Prepare(0)
		k.RunCASLTFrontierExec(machine.ExecTeam)
	}
	if got, limit := k.frontierStateBytes(), 16*g.NumVertices()+4096; got > limit {
		t.Fatalf("frontier state %d bytes exceeds %d after team runs", got, limit)
	}
}

func TestFrontierDeepPath(t *testing.T) {
	// The frontier variant's advantage case: a long path where the sweep
	// formulation does N work per level. Correctness check only here;
	// timing is in the ablation bench.
	m := testMachine(t, 2)
	g := graph.Path(2000)
	k := NewKernel(m, g)
	k.Prepare(0)
	r := k.RunCASLTFrontier()
	if r.Depth != 1999 {
		t.Fatalf("depth = %d, want 1999", r.Depth)
	}
	if err := Validate(g, 0, r, true); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierLevelIsOneRound pins the round shape: a level is its
// relaxation round and nothing else — no serial section assembles the next
// frontier and no copy round moves it.
func TestFrontierLevelIsOneRound(t *testing.T) {
	m := testMachine(t, 2)
	k := NewKernel(m, graph.Grid2D(64, 4))
	k.SetStealing(false)
	k.Prepare(0)
	r := k.RunCASLTFrontierExec(machine.ExecTrace)
	st := k.Trace()
	if st.Steps != r.Depth+1 || st.Barriers != r.Depth+1 || st.Singles != 0 {
		t.Fatalf("frontier depth %d: %d steps, %d barriers, %d singles; want %d, %d, 0",
			r.Depth, st.Steps, st.Barriers, st.Singles, r.Depth+1, r.Depth+1)
	}
	// The hybrid's levels are one round too, plus the push→pull conversion
	// rounds of a bitmap pull level; every barrier closes a loop.
	g := graph.RMAT(10, 8<<10, 0.57, 0.19, 0.19, 3)
	for _, bitmap := range []bool{false, true} {
		k := NewKernel(m, g)
		k.SetBitmap(bitmap)
		k.Prepare(0)
		k.RunCASLTHybridExec(machine.ExecTrace)
		if st := k.Trace(); st.Singles != 0 || st.Barriers != st.Steps {
			t.Fatalf("hybrid bitmap=%v: %d steps, %d barriers, %d singles; want no singles and a barrier per step",
				bitmap, st.Steps, st.Barriers, st.Singles)
		}
	}
}

// TestFrontierAllocationsIndependentOfDepth pins that a level allocates
// nothing, for every loop shape a level can take: the loop bodies are bound
// once per region, so a run on a grid 16 times deeper allocates exactly as
// often. The hybrid runs its last levels bottom-up, 11 of them on
// Grid2D(12,4) and 8 on the deeper grids, so the pull shapes are pinned too.
func TestFrontierAllocationsIndependentOfDepth(t *testing.T) {
	m := testMachine(t, 2)
	frontier, hybrid := (*Kernel).RunCASLTFrontier, (*Kernel).RunCASLTHybrid
	cases := []struct {
		name   string
		run    func(*Kernel) Result
		steal  bool
		bitmap bool
		bal    graph.Balance
	}{
		{"frontier", frontier, false, false, graph.BalanceVertex},
		{"frontier/steal", frontier, true, false, graph.BalanceVertex},
		{"frontier/edge", frontier, false, false, graph.BalanceEdge},
		{"hybrid", hybrid, false, false, graph.BalanceVertex},
		{"hybrid/bitmap", hybrid, false, true, graph.BalanceVertex},
		{"hybrid/bitmap/steal", hybrid, true, true, graph.BalanceVertex},
		{"hybrid/edge", hybrid, false, false, graph.BalanceEdge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs := func(rows int) float64 {
				k := NewKernel(m, graph.Grid2D(rows, 4))
				k.SetStealing(c.steal)
				k.SetBitmap(c.bitmap)
				k.SetBalance(c.bal)
				run := func() {
					k.Prepare(0)
					c.run(k)
				}
				for i := 0; i < 3; i++ {
					run() // grow the discovery buffers to their steady capacity
				}
				return testing.AllocsPerRun(10, run)
			}
			want := allocs(64)
			for _, rows := range []int{12, 1024} {
				if got := allocs(rows); got != want {
					t.Fatalf("allocations per run: %v on Grid2D(64,4), %v on Grid2D(%d,4)", want, got, rows)
				}
			}
		})
	}
}

// TestOneWorkerLevel pins the one-worker grain: a push level whose
// frontier vertices plus arcs come to fewer than 256 units runs on one
// worker, one of 256 units or more is shared.
func TestOneWorkerLevel(t *testing.T) {
	cases := []struct {
		nf, mf uint64
		want   bool
	}{
		{1, 0, true},
		{4, 16, true},
		{255, 0, true},
		{55, 200, true},
		{256, 0, false},
		{56, 200, false},
		{1, 255, false},
		{2, 1 << 40, false},
	}
	for _, c := range cases {
		if got := OneWorkerLevel(c.nf, c.mf); got != c.want {
			t.Errorf("OneWorkerLevel(%d, %d) = %v, want %v", c.nf, c.mf, got, c.want)
		}
	}
}

// TestSmallLevelsRunOnWorkerZero checks the one-worker rule end to end.
// Every push level of a 64x4 grid holds at most 4 vertices of degree at
// most 4, far below the grain, so under vertex balance without stealing
// every claim of the frontier and hybrid runs, word and bitmap, is worker
// 0's, and the trace replay puts every frontier iteration on worker 0. On
// a random graph whose levels exceed the grain, other workers still claim.
func TestSmallLevelsRunOnWorkerZero(t *testing.T) {
	grid, wide := graph.Grid2D(64, 4), graph.ConnectedRandom(2000, 20000, 1)
	for _, p := range []int{2, 4} {
		m := machine.New(p, machine.WithMetrics())
		t.Cleanup(m.Close)
		attempts := func(g *graph.Graph, hybrid, bitmap bool) []uint64 {
			k := NewKernel(m, g)
			k.SetStealing(false)
			k.SetBitmap(bitmap)
			k.Prepare(0)
			m.Metrics().Reset()
			var err error
			if hybrid {
				err = ValidateBidir(g, 0, k.RunCASLTHybrid())
			} else {
				err = Validate(g, 0, k.RunCASLTFrontier(), true)
			}
			if err != nil {
				t.Fatalf("p=%d hybrid=%v bitmap=%v: %v", p, hybrid, bitmap, err)
			}
			return m.Snapshot().WorkerAttempts
		}
		for _, hybrid := range []bool{false, true} {
			for _, bitmap := range []bool{false, true} {
				wa := attempts(grid, hybrid, bitmap)
				if wa[0] == 0 || slices.ContainsFunc(wa[1:], func(a uint64) bool { return a != 0 }) {
					t.Errorf("p=%d hybrid=%v bitmap=%v: claims per worker %v on the grid, want all on worker 0",
						p, hybrid, bitmap, wa)
				}
			}
		}
		if wa := attempts(wide, false, false); !slices.ContainsFunc(wa[1:], func(a uint64) bool { return a != 0 }) {
			t.Errorf("p=%d: claims per worker %v on levels above the grain, want some off worker 0", p, wa)
		}

		k := NewKernel(m, grid)
		k.SetStealing(false)
		k.Prepare(0)
		k.RunCASLTFrontierExec(machine.ExecTrace)
		if it := k.Trace().Iters; it[0] == 0 || slices.ContainsFunc(it[1:], func(n uint64) bool { return n != 0 }) {
			t.Errorf("p=%d: traced iterations per worker %v on the grid, want all on worker 0", p, it)
		}
	}
}

// TestStealingLevelSeedsEveryDeque pins the stealing relaxation's loop
// shape: a level spans at least P slots, so every worker's deque is seeded
// and the level's first claim is an owner's pop. On a path every frontier
// is one vertex, so each level claims exactly P chunks and at least one of
// them locally.
func TestStealingLevelSeedsEveryDeque(t *testing.T) {
	const p = 4
	m := machine.New(p, machine.WithMetrics())
	defer m.Close()
	g := graph.Path(40)
	k := NewKernel(m, g)
	k.SetStealing(true)
	for run := 0; run < 20; run++ {
		k.Prepare(0)
		m.Metrics().Reset()
		r := k.RunCASLTFrontier()
		if err := Validate(g, 0, r, true); err != nil {
			t.Fatal(err)
		}
		levels := uint64(r.Depth + 1)
		s := m.Snapshot()
		if s.ChunksLocal+s.Steals != p*levels || s.ChunksLocal < levels {
			t.Fatalf("run %d: %d levels claimed %d chunks locally and stole %d; want %d in all, at least %d local",
				run, levels, s.ChunksLocal, s.Steals, p*levels, levels)
		}
	}
}

// Property: frontier and sweep variants agree on random connected graphs.
func TestQuickFrontierAgrees(t *testing.T) {
	m := testMachine(t, 4)
	f := func(nRaw uint8, mRaw uint16, seed int64, srcRaw uint8) bool {
		n := int(nRaw)%150 + 2
		edges := int(mRaw)%600 + n
		g := graph.ConnectedRandom(n, edges, seed)
		src := uint32(int(srcRaw) % n)
		k := NewKernel(m, g)
		k.Prepare(src)
		return Validate(g, src, k.RunCASLTFrontier(), true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
