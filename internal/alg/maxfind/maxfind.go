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

	round uint32 // CAS-LT round id, advanced once per Run

	trace *exec.TraceStats // structural record of the last trace-backend run
}

// NewKernel returns a kernel for lists of n elements executed on m.
// The machine is borrowed, not owned: Close it yourself.
func NewKernel(m *machine.Machine, n int) *Kernel {
	return &Kernel{
		m:     m,
		n:     n,
		isMax: make([]uint32, n),
		cells: cw.NewArray(n, cw.Packed),
		gates: cw.NewGateArray(n, cw.Packed),
		mtx:   cw.NewMutexArray(n),
	}
}

// N returns the kernel's list size.
func (k *Kernel) N() int { return k.n }

// Prepare installs the input list and re-initializes the candidate flags
// and (for the gatekeeper methods) the gatekeeper array. Prepare is the
// untimed initialization phase; note that the CAS-LT cells need *no*
// preparation between runs — the kernel just advances its round id.
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
// lock.
func (k *Kernel) Run(method cw.Method) int {
	return k.RunExec(k.m.Exec(), method)
}

// RunExec is Run under an explicit execution backend.
func (k *Kernel) RunExec(e machine.Exec, method cw.Method) int {
	// The write closure and (for CAS-LT) the round id are chosen
	// driver-side: nextRound mutates kernel state, which SPMD bodies must
	// not do. Each write threads the caller's metrics shard through
	// Shard.Claim, which reduces to the won bool when metrics are off.
	var write func(sh *metrics.Shard, loser int)
	switch method {
	case cw.CASLT:
		round := k.nextRound()
		write = func(sh *metrics.Shard, loser int) {
			if sh.Claim(loser, round, k.cells.TryClaimOutcome(loser, round)) {
				k.isMax[loser] = 0
			}
		}
	case cw.Gatekeeper:
		write = func(sh *metrics.Shard, loser int) {
			if sh.Claim(loser, 1, k.gates.TryEnterOutcome(loser)) {
				k.isMax[loser] = 0
			}
		}
	case cw.GatekeeperChecked:
		write = func(sh *metrics.Shard, loser int) {
			if sh.Claim(loser, 1, k.gates.TryEnterCheckedOutcome(loser)) {
				k.isMax[loser] = 0
			}
		}
	case cw.Naive:
		// Naive has no winner selection: every write is issued, so every
		// attempt records as an executed win.
		write = func(sh *metrics.Shard, loser int) {
			sh.Claim(loser, 1, cw.OutcomeWin)
			k.isMax[loser] = 0
		}
	case cw.Mutex:
		write = func(sh *metrics.Shard, loser int) {
			k.mtx.Lock(loser)
			k.isMax[loser] = 0
			k.mtx.Unlock(loser)
			sh.Claim(loser, 1, cw.OutcomeWin)
		}
	default:
		panic("maxfind: unknown method " + method.String())
	}
	n := k.n
	max := -1
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		rec := ctx.Metrics()
		if ctx.Worker() == 0 {
			rec.AddRounds(1) // constant-round kernel: one CW round per run
		}
		// The paper's collapse(2) pair loop as one round: the loser of each
		// comparison takes a common concurrent write.
		ctx.Range(n*n, func(lo, hi, w int) {
			sh := rec.Shard(w)
			for idx := lo; idx < hi; idx++ {
				i, j := idx/n, idx%n
				if i == j {
					continue
				}
				write(sh, k.loserOf(i, j))
			}
		})
		// The final scan of Figure 4: one worker scans while the rest wait.
		ctx.Single(func() { max = k.scan() })
	})
	return max
}

// Trace returns the structural record of the kernel's last run under the
// trace backend, or nil if the last run used a timed backend.
func (k *Kernel) Trace() *exec.TraceStats { return k.trace }

// loserOf returns the index whose flag the pair (i, j) clears, following
// the paper's comparison: the smaller value loses; on ties the smaller
// index loses.
func (k *Kernel) loserOf(i, j int) int {
	li, lj := k.list[i], k.list[j]
	if li < lj || (li == lj && i < j) {
		return i
	}
	return j
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

// nextRound advances the CAS-LT round, resetting the cells on the rare
// uint32 wrap so stale claims can never alias.
func (k *Kernel) nextRound() uint32 {
	k.round++
	if k.round == 0 {
		k.m.ParallelRange(k.n, func(lo, hi, _ int) { k.cells.ResetRange(lo, hi) })
		k.round = 1
	}
	return k.round
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
