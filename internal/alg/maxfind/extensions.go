package maxfind

import (
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/sched"
)

// This file implements the comparison algorithms the paper's conclusion
// motivates: EREW/CREW-style maximum algorithms with better work bounds
// than the W(N²) constant-time kernel, for studying the work/depth vs.
// concurrency trade-off on real machines. All three run over exec.Ctx, so
// they execute under the team and trace backends like the main kernel.

// TournamentMax returns the index of the maximum via a balanced binary
// tournament under the machine's default execution backend: D(log N)
// rounds of pairwise comparisons, W(N) total work, no concurrent writes at
// all (each round's writes target distinct cells — EREW). Tie-breaking
// matches Sequential/Kernel: on equal values the larger index survives.
//
// Returns -1 for an empty list.
func TournamentMax(m *machine.Machine, list []uint32) int {
	return TournamentMaxExec(m, m.Exec(), list)
}

// TournamentMaxExec is TournamentMax under an explicit execution backend.
func TournamentMaxExec(m *machine.Machine, e machine.Exec, list []uint32) int {
	n := len(list)
	if n == 0 {
		return -1
	}
	// The two level buffers are shared, allocated driver-side; the swap
	// between rounds happens on worker-local slice headers inside the body,
	// which every SPMD copy performs identically.
	bufA := make([]uint32, n)
	bufB := make([]uint32, (n+1)/2)
	res := -1
	exec.Run(m, e, func(ctx exec.Ctx) {
		// cur[i] is the surviving index of subtree i at the current level;
		// each round writes the next level into the other buffer so reads
		// and writes of one round never overlap (EREW discipline).
		cur, next := bufA, bufB
		ctx.For(n, func(i int) { cur[i] = uint32(i) })
		for width := n; width > 1; {
			half := (width + 1) / 2
			src, dst := cur, next
			ctx.For(half, func(i int) {
				if 2*i+1 >= width {
					dst[i] = src[2*i] // odd element gets a bye
					return
				}
				a, b := src[2*i], src[2*i+1]
				// The larger value — or on ties the larger index — survives.
				if list[b] > list[a] || (list[b] == list[a] && b > a) {
					dst[i] = b
				} else {
					dst[i] = a
				}
			})
			cur, next = next, cur
			width = half
		}
		if ctx.Worker() == 0 {
			res = int(cur[0])
		}
	})
	return res
}

// ReduceMax returns the index of the maximum via per-worker sequential
// scans combined through a priority concurrent write (PriorityMaxCell) —
// the W(N), D(N/P + 1) "practical" reduction, using the CRCW extension
// cells, under the machine's default execution backend. Tie-breaking
// matches Sequential.
//
// Returns -1 for an empty list.
func ReduceMax(m *machine.Machine, list []uint32) int {
	return ReduceMaxExec(m, m.Exec(), list)
}

// ReduceMaxExec is ReduceMax under an explicit execution backend.
func ReduceMaxExec(m *machine.Machine, e machine.Exec, list []uint32) int {
	n := len(list)
	if n == 0 {
		return -1
	}
	var best cw.PriorityMaxCell
	exec.Run(m, e, func(ctx exec.Ctx) {
		ctx.Range(n, func(lo, hi, _ int) {
			localIdx := lo
			for i := lo + 1; i < hi; i++ {
				if list[i] >= list[localIdx] {
					localIdx = i
				}
			}
			best.Offer(list[localIdx], uint32(localIdx))
		})
	})
	return int(best.ID())
}

// DoublyLogMax returns the index of the maximum using the classic
// O(log log N)-depth CRCW strategy under the machine's default execution
// backend: recursively split the list into √N groups, find each group's
// maximum recursively, then combine the group winners with the
// constant-time all-pairs kernel. Work is O(N log log N). It requires
// common concurrent writes (the all-pairs combine step), which it performs
// with CAS-LT.
//
// This implementation parallelizes within each step (the all-pairs
// combines and leaf scans run on the machine) but orchestrates sibling
// groups sequentially, so its wall-clock depth on P workers is not the
// theoretical O(log log N); it is here to exercise the CW primitives in a
// second classic CRCW algorithm shape and as a correctness oracle.
//
// Returns -1 for an empty list.
func DoublyLogMax(m *machine.Machine, list []uint32) int {
	return DoublyLogMaxExec(m, m.Exec(), list)
}

// DoublyLogMaxExec is DoublyLogMax under an explicit execution backend.
// The recursion is a pure function of the input, so under the team backend
// every worker walks the same recursion tree; per-combine shared scratch
// is published through a Single.
func DoublyLogMaxExec(m *machine.Machine, e machine.Exec, list []uint32) int {
	n := len(list)
	if n == 0 {
		return -1
	}
	idx := make([]uint32, n)
	s := new(dlScratch)
	res := -1
	exec.Run(m, e, func(ctx exec.Ctx) {
		ctx.For(n, func(i int) { idx[i] = uint32(i) })
		win := doublyLog(ctx, s, list, idx)
		if ctx.Worker() == 0 {
			res = int(win)
		}
	})
	return res
}

// dlScratch is the shared combine scratch of one DoublyLogMax execution,
// declared driver-side (one value for all SPMD copies) and refilled inside
// a Single per combine.
type dlScratch struct {
	alive []uint32
	cells *cw.Array
}

// doublyLog returns the original-list index of the maximum among the
// candidate indices idx. Every SPMD copy computes the same return value:
// the sequential cases read only immutable input, and the combine's
// survivor scan runs after the round's closing barrier.
func doublyLog(ctx exec.Ctx, s *dlScratch, list []uint32, idx []uint32) uint32 {
	n := len(idx)
	if n == 1 {
		return idx[0]
	}
	if n <= 8 {
		best := idx[0]
		for _, c := range idx[1:] {
			if list[c] > list[best] || (list[c] == list[best] && c > best) {
				best = c
			}
		}
		return best
	}
	groups := isqrt(n)
	winners := make([]uint32, 0, groups)
	for g := 0; g < groups; g++ {
		lo, hi := sched.BlockRange(n, groups, g)
		if lo < hi {
			winners = append(winners, doublyLog(ctx, s, list, idx[lo:hi]))
		}
	}
	return allPairsMax(ctx, s, list, winners)
}

// allPairsMax is the constant-time combine: the loser of every pair has its
// candidate flag cleared by a CAS-LT-guarded common write.
func allPairsMax(ctx exec.Ctx, s *dlScratch, list []uint32, cand []uint32) uint32 {
	k := len(cand)
	if k == 1 {
		return cand[0]
	}
	// One worker refills the shared scratch; the Single's closing barrier
	// publishes it to the team before anyone claims. The flags are fresh
	// per combine: a slow peer may still be scanning the previous
	// combine's flags when worker 0 runs this Single.
	ctx.Single(func() {
		s.alive = make([]uint32, k)
		for i := range s.alive {
			s.alive[i] = 1
		}
		s.cells = cw.NewArray(k, cw.Packed)
	})
	alive, cells := s.alive, s.cells
	rec := ctx.Metrics()
	ctx.Range(k*k, func(lo, hi, w int) {
		sh := rec.Shard(w)
		for p := lo; p < hi; p++ {
			i, j := p/k, p%k
			if i == j {
				continue
			}
			a, b := cand[i], cand[j]
			loser := i
			if list[a] > list[b] || (list[a] == list[b] && a > b) {
				loser = j
			}
			if sh.Claim(loser, 1, cells.TryClaimOutcome(loser, 1)) {
				alive[loser] = 0
			}
		}
	})
	// Every worker scans for the survivor identically: the scan is
	// read-only and runs after the combine round's barrier.
	for i := 0; i < k; i++ {
		if alive[i] == 1 {
			return cand[i]
		}
	}
	// Unreachable: exactly one candidate survives.
	panic("maxfind: all-pairs combine eliminated every candidate")
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}
