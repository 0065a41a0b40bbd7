// Package maxfind implements the paper's first benchmark: the classic
// constant-time CRCW PRAM maximum algorithm (Figure 4).
//
// The algorithm compares all N² ordered pairs of the input list; the loser
// of each comparison has its isMax flag cleared by a *common* concurrent
// write (every writer stores the same value, "not maximum"). After one
// lock-step round exactly one flag survives — the maximum — found by a
// final scan. Work is W(N²), depth is D(1): an extreme stress test in which
// the whole algorithm is concurrent writes, which is why the paper uses it
// to expose the per-attempt cost of each CW method.
//
// Ties are broken exactly as in the paper's listing: for equal values the
// pair's smaller index is marked "not maximum", so the largest index among
// equal maxima wins.
//
// The Kernel type pre-allocates all auxiliary state so that Run measures
// only the algorithm, matching the paper's "measurement ... excludes all
// time spent in initialization code".
package maxfind

import (
	"fmt"
	"math/bits"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
)

// Kernel holds the shared arrays for repeated maximum runs over lists of a
// fixed size.
type Kernel struct {
	m    *machine.Machine
	n    int
	list []uint32

	isMax []uint32 // 1 = still a maximum candidate
	cells *cw.Array
	gates *cw.GateArray
	mtx   *cw.MutexArray

	trace *exec.TraceStats // structural record of the last trace-backend run
}

// NewKernel returns a kernel for lists of n elements executed on m.
// The machine is borrowed, not owned: Close it yourself.
func NewKernel(m *machine.Machine, n int) *Kernel {
	k := &Kernel{
		m:     m,
		n:     n,
		isMax: make([]uint32, n),
		cells: cw.NewArray(n, cw.Packed),
		gates: cw.NewGateArray(n, cw.Packed),
		mtx:   cw.NewMutexArray(n),
	}
	m.Stamp(k.cells)
	return k
}

// N returns the kernel's list size.
func (k *Kernel) N() int { return k.n }

// Prepare installs the input list and re-initializes the candidate flags
// and (for the gatekeeper methods) the gatekeeper array. Prepare is the
// untimed initialization phase; note that the CAS-LT cells need *no*
// preparation between runs — each run just claims them with a fresh round
// id from the machine.
func (k *Kernel) Prepare(list []uint32) {
	if len(list) != k.n {
		panic(fmt.Sprintf("maxfind: list length %d != kernel size %d", len(list), k.n))
	}
	k.list = list
	k.m.ParallelRange(k.n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			k.isMax[i] = 1
		}
		k.gates.ResetRange(lo, hi)
	})
}

// Run executes the maximum algorithm with the given concurrent-write
// method under the machine's default execution backend and returns the
// index of the maximum element. Prepare must have been called for the
// current input. cw.Naive issues every loser write (a common CW of one
// word). cw.Gatekeeper is Figure 2: every attempt fetch-and-adds the
// loser's gate, long after a winner exists — the serialization the paper
// blames for it losing to naive here; cw.GatekeeperChecked adds the load
// pre-check. With cw.CASLT the first attempt on each loser cell wins and
// every later one fails the load pre-check. cw.Mutex takes the loser's
// lock. Every method draws the run's one round id from ctx.NextRound;
// only CAS-LT claims with it.
func (k *Kernel) Run(method cw.Method) int {
	return k.RunExec(k.m.Exec(), method)
}

// RunExec is Run under an explicit execution backend.
func (k *Kernel) RunExec(e machine.Exec, method cw.Method) int {
	switch method {
	case cw.CASLT, cw.Gatekeeper, cw.GatekeeperChecked, cw.Naive, cw.Mutex:
	default:
		panic("maxfind: unknown method " + method.String())
	}
	n := k.n
	max := -1
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		rec := ctx.Metrics()
		round := ctx.NextRound() // constant-round kernel: one CW round per run
		// The paper's collapse(2) pair loop as one round: the loser of each
		// comparison takes a common concurrent write.
		ctx.Range(n*n, func(lo, hi, w int) {
			sh := rec.Shard(w)
			rows(n, lo, hi, func(i, j0, end int) { k.row(sh, method, round, i, j0, end) })
		})
		// The final scan of Figure 4: one worker scans while the rest wait.
		ctx.Single(func() { max = k.scan() })
	})
	return max
}

// Trace returns the structural record of the kernel's last run under the
// trace backend, or nil if the last run used a timed backend.
func (k *Kernel) Trace() *exec.TraceStats { return k.trace }

// row makes the writes of the pairs (i, j), j0 <= j < end and j != i: the
// loser of each pair has its flag cleared under method. The switch runs
// once per row, so each method's loop inlines its primitive and the
// shard's Claim, which reduces to the won bool when metrics are off.
func (k *Kernel) row(sh *metrics.Shard, method cw.Method, round uint32, i, j0, end int) {
	list, isMax := k.list, k.isMax
	ki := key(list[i], i)
	switch method {
	case cw.CASLT:
		cells := k.cells
		for j := j0; j < end; j++ {
			if j == i {
				continue
			}
			l := loser(ki, key(list[j], j), i, j)
			if sh.Claim(l, round, cells.TryClaimOutcome(l, round)) {
				isMax[l] = 0
			}
		}
	case cw.Gatekeeper:
		gates := k.gates
		for j := j0; j < end; j++ {
			if j == i {
				continue
			}
			l := loser(ki, key(list[j], j), i, j)
			if sh.Claim(l, 1, gates.TryEnterOutcome(l)) {
				isMax[l] = 0
			}
		}
	case cw.GatekeeperChecked:
		gates := k.gates
		for j := j0; j < end; j++ {
			if j == i {
				continue
			}
			l := loser(ki, key(list[j], j), i, j)
			if sh.Claim(l, 1, gates.TryEnterCheckedOutcome(l)) {
				isMax[l] = 0
			}
		}
	case cw.Naive:
		// Naive has no winner selection: every write is issued, so every
		// attempt records as an executed win.
		for j := j0; j < end; j++ {
			if j == i {
				continue
			}
			l := loser(ki, key(list[j], j), i, j)
			sh.Claim(l, 1, cw.OutcomeWin)
			isMax[l] = 0
		}
	case cw.Mutex:
		mtx := k.mtx
		for j := j0; j < end; j++ {
			if j == i {
				continue
			}
			l := loser(ki, key(list[j], j), i, j)
			mtx.Lock(l)
			isMax[l] = 0
			mtx.Unlock(l)
			sh.Claim(l, 1, cw.OutcomeWin)
		}
	}
}

// rows walks the share [lo, hi) of the row-major n×n pair space one row at
// a time, calling row(i, j0, end) for the pairs (i, j), j0 <= j < end. A
// share may start and end mid-row; only its first row costs a division.
func rows(n, lo, hi int, row func(i, j0, end int)) {
	for i, j0 := lo/n, lo%n; lo < hi; i, j0 = i+1, 0 {
		end := min(n, j0+hi-lo)
		row(i, j0, end)
		lo += end - j0
	}
}

// key orders elements by the paper's comparison: by value, and on equal
// values by index. Of two elements, the one with the smaller key loses.
// The index must fit in 32 bits.
func key(v uint32, i int) uint64 { return uint64(v)<<32 | uint64(i) }

// loser returns the pair's loser, i if ki < kj and j otherwise. The keys
// of distinct indices never tie. The comparison's borrow selects the index
// arithmetically, so a random input costs no mispredicted branch.
func loser(ki, kj uint64, i, j int) int {
	_, less := bits.Sub64(ki, kj, 0)
	return j + (i-j)*int(less)
}

// scan is the final pass of Figure 4: the last surviving candidate is the
// maximum.
func (k *Kernel) scan() int {
	max := -1
	for j := 0; j < k.n; j++ {
		if k.isMax[j] == 1 {
			max = j
		}
	}
	return max
}

// Sequential returns the index of the maximum by a left-to-right scan with
// the same tie-breaking as the parallel kernel (largest index among equal
// maxima), as the validation baseline. Returns -1 for an empty list.
func Sequential(list []uint32) int {
	max := -1
	for i, v := range list {
		if max == -1 || v >= list[max] {
			max = i
		}
	}
	return max
}
