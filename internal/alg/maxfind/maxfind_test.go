package maxfind

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/race"
)

// selectionMethods are the CW methods that are race-detector-clean; Naive
// is tested separately and skipped under -race.
var selectionMethods = []cw.Method{cw.CASLT, cw.Gatekeeper, cw.GatekeeperChecked, cw.Mutex}

func testMachine(t *testing.T, p int, opts ...machine.Option) *machine.Machine {
	t.Helper()
	m := machine.New(p, opts...)
	t.Cleanup(m.Close)
	return m
}

func TestSequential(t *testing.T) {
	cases := []struct {
		list []uint32
		want int
	}{
		{nil, -1},
		{[]uint32{7}, 0},
		{[]uint32{1, 9, 3}, 1},
		{[]uint32{9, 1, 3}, 0},
		{[]uint32{1, 3, 9}, 2},
		{[]uint32{5, 5, 5}, 2},    // ties: largest index wins
		{[]uint32{5, 9, 9, 1}, 2}, // tie among maxima
		{[]uint32{0, 0}, 1},
	}
	for _, c := range cases {
		if got := Sequential(c.list); got != c.want {
			t.Errorf("Sequential(%v) = %d, want %d", c.list, got, c.want)
		}
	}
}

func TestKernelMatchesSequentialAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []int{1, 4} {
		m := testMachine(t, p)
		for _, n := range []int{1, 2, 3, 17, 100, 257} {
			k := NewKernel(m, n)
			if k.N() != n {
				t.Fatalf("N() = %d, want %d", k.N(), n)
			}
			for trial := 0; trial < 3; trial++ {
				list := make([]uint32, n)
				for i := range list {
					list[i] = uint32(rng.Intn(n + 1)) // small range forces ties
				}
				want := Sequential(list)
				for _, method := range selectionMethods {
					k.Prepare(list)
					if got := k.Run(method); got != want {
						t.Fatalf("p=%d n=%d %v: got %d (value %d), want %d (value %d), list=%v",
							p, n, method, got, list[got], want, list[want], list)
					}
				}
			}
		}
	}
}

func TestKernelNaiveMatchesSequential(t *testing.T) {
	if race.Enabled {
		t.Skip("naive variant is intentionally racy (benign common CW); skipped under -race")
	}
	rng := rand.New(rand.NewSource(2))
	m := testMachine(t, 4)
	for _, n := range []int{1, 5, 64, 200} {
		k := NewKernel(m, n)
		list := make([]uint32, n)
		for i := range list {
			list[i] = uint32(rng.Intn(50))
		}
		k.Prepare(list)
		if got, want := k.Run(cw.Naive), Sequential(list); got != want {
			t.Fatalf("n=%d naive: got %d, want %d", n, got, want)
		}
	}
}

// CAS-LT needs no re-preparation of its cells between runs: repeated runs
// on fresh inputs must stay correct with only Prepare (isMax reset) in
// between — the round id advances instead.
func TestCASLTRepeatedRunsNoCellReset(t *testing.T) {
	m := testMachine(t, 4)
	const n = 50
	k := NewKernel(m, n)
	rng := rand.New(rand.NewSource(3))
	for rep := 0; rep < 20; rep++ {
		list := make([]uint32, n)
		for i := range list {
			list[i] = uint32(rng.Intn(100))
		}
		k.Prepare(list)
		if got, want := k.Run(cw.CASLT), Sequential(list); got != want {
			t.Fatalf("rep %d: got %d, want %d", rep, got, want)
		}
	}
}

// The gatekeeper methods DO need their reset: running twice without
// Prepare must lose the second run's writes (flags stay stale), which is
// precisely the failure mode the paper describes. We verify by running on
// an input whose maximum changes.
func TestGatekeeperRequiresReset(t *testing.T) {
	m := testMachine(t, 2)
	const n = 8
	k := NewKernel(m, n)
	listA := []uint32{1, 2, 3, 4, 5, 6, 7, 8} // max at 7
	listB := []uint32{8, 7, 6, 5, 4, 3, 2, 1} // max at 0
	k.Prepare(listA)
	if got := k.Run(cw.Gatekeeper); got != 7 {
		t.Fatalf("first run: got %d, want 7", got)
	}
	// Swap the input but skip Prepare: gates are all closed, so no flag
	// can be cleared and every candidate survives — scan returns the last
	// index, not listB's true maximum at 0. (We re-set isMax by hand to
	// isolate the gate staleness from flag staleness.)
	k.list = listB
	for i := range k.isMax {
		k.isMax[i] = 1
	}
	if got := k.Run(cw.Gatekeeper); got == 0 {
		t.Fatal("gatekeeper run without reset still found the new maximum; expected stale gates to lose all writes")
	}
}

func TestPrepareRejectsWrongLength(t *testing.T) {
	m := testMachine(t, 1)
	k := NewKernel(m, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Prepare with wrong length did not panic")
		}
	}()
	k.Prepare([]uint32{1, 2, 3})
}

func TestTournamentMax(t *testing.T) {
	m := testMachine(t, 4)
	if got := TournamentMax(m, nil); got != -1 {
		t.Fatalf("empty: got %d, want -1", got)
	}
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 5, 8, 100, 1000} {
		list := make([]uint32, n)
		for i := range list {
			list[i] = uint32(rng.Intn(n + 1))
		}
		if got, want := TournamentMax(m, list), Sequential(list); got != want {
			t.Fatalf("n=%d: got %d (value %d), want %d (value %d)", n, got, list[got], want, list[want])
		}
	}
}

func TestReduceMax(t *testing.T) {
	m := testMachine(t, 4)
	if got := ReduceMax(m, nil); got != -1 {
		t.Fatalf("empty: got %d, want -1", got)
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 7, 100, 1000} {
		list := make([]uint32, n)
		for i := range list {
			list[i] = uint32(rng.Intn(n + 1))
		}
		if got, want := ReduceMax(m, list), Sequential(list); got != want {
			t.Fatalf("n=%d: got %d, want %d", n, got, want)
		}
	}
	// All-zero input: the identity-element corner of PriorityMaxCell.
	if got := ReduceMax(m, []uint32{0, 0, 0}); got != 2 {
		t.Fatalf("all-zero: got %d, want 2", got)
	}
}

func TestDoublyLogMax(t *testing.T) {
	m := testMachine(t, 4)
	if got := DoublyLogMax(m, nil); got != -1 {
		t.Fatalf("empty: got %d, want -1", got)
	}
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 8, 9, 64, 100, 500} {
		list := make([]uint32, n)
		for i := range list {
			list[i] = uint32(rng.Intn(n + 1))
		}
		if got, want := DoublyLogMax(m, list), Sequential(list); got != want {
			t.Fatalf("n=%d: got %d (value %d), want %d (value %d)", n, got, list[got], want, list[want])
		}
	}
}

// Property: every method agrees with Sequential on random inputs.
func TestQuickAllMethodsAgree(t *testing.T) {
	m := testMachine(t, 4)
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 300 {
			return true
		}
		list := make([]uint32, len(raw))
		for i, r := range raw {
			list[i] = uint32(r % 64) // force ties
		}
		want := Sequential(list)
		k := NewKernel(m, len(list))
		for _, method := range selectionMethods {
			k.Prepare(list)
			if k.Run(method) != want {
				return false
			}
		}
		return TournamentMax(m, list) == want &&
			ReduceMax(m, list) == want &&
			DoublyLogMax(m, list) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Every ordered pair (i, j), i != j, makes exactly one selection call at
// any P and under either backend, however the shares cut the pair space.
// The maximum alone cannot show this: a walk that skips or repeats pairs
// at share boundaries still returns it, since every non-maximum also
// loses through other pairs.
func TestRunClaimsEveryOrderedPairOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{1, 2, 3, 4, 7} {
		m := testMachine(t, p, machine.WithMetrics())
		rec := m.Metrics()
		for _, n := range []int{1, 2, 3, 5, 17, 257} {
			k := NewKernel(m, n)
			list := make([]uint32, n)
			for i := range list {
				list[i] = uint32(rng.Intn(n/2 + 1)) // small range forces ties
			}
			want := Sequential(list)
			pairs := uint64(n * (n - 1))
			for _, e := range []machine.Exec{machine.ExecTeam, machine.ExecTrace} {
				for _, method := range cw.Methods {
					if method == cw.Naive && race.Enabled {
						continue // intentionally racy common CW
					}
					k.Prepare(list)
					rec.Reset()
					if got := k.RunExec(e, method); got != want {
						t.Fatalf("p=%d n=%d %v %v: got %d, want %d", p, n, e, method, got, want)
					}
					s := rec.Snapshot()
					if calls := s.PrecheckSkips + s.CASAttempts; calls != pairs {
						t.Errorf("p=%d n=%d %v %v: %d selection calls, want n(n-1) = %d", p, n, e, method, calls, pairs)
					}
					// The selection methods let one write per loser through;
					// naive and mutex execute every write.
					wins := uint64(n - 1)
					if method == cw.Naive || method == cw.Mutex {
						wins = pairs
					}
					if s.CASWins != wins {
						t.Errorf("p=%d n=%d %v %v: %d wins, want %d", p, n, e, method, s.CASWins, wins)
					}
					if method == cw.Gatekeeper && s.PrecheckSkips != 0 {
						t.Errorf("p=%d n=%d %v: unchecked gatekeeper skipped %d attempts", p, n, e, s.PrecheckSkips)
					}
				}
			}
		}
	}
}

// paperLoser is the comparison of the paper's Figure 4 listing, the
// reference for loser: the smaller value loses, and on equal values the
// smaller index.
func paperLoser(li, lj uint32, i, j int) int {
	if li < lj || (li == lj && i < j) {
		return i
	}
	return j
}

func FuzzLoser(f *testing.F) {
	for _, c := range []struct{ li, lj, i, j uint32 }{
		{5, 5, 1, 2}, // equal values: the smaller index loses
		{5, 5, 2, 1},
		{0, math.MaxUint32, 0, 1},
		{0, math.MaxUint32, 1, 0},
		{math.MaxUint32, 0, 0, 1},
		{math.MaxUint32, math.MaxUint32, 0, math.MaxUint32},
		{math.MaxUint32, math.MaxUint32, math.MaxUint32, 0},
		{0, 0, 3, 7},
		{7, 3, 3, 7},
	} {
		f.Add(c.li, c.lj, c.i, c.j)
	}
	f.Fuzz(func(t *testing.T, li, lj, ui, uj uint32) {
		if ui == uj {
			return // the kernel never compares an element with itself
		}
		i, j := int(ui), int(uj)
		if got, want := loser(key(li, i), key(lj, j), i, j), paperLoser(li, lj, i, j); got != want {
			t.Fatalf("loser(list[%d]=%d, list[%d]=%d) = %d, want %d", i, li, j, lj, got, want)
		}
	})
}
