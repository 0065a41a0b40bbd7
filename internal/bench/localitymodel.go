package bench

import (
	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/sched"
)

// This file is the deterministic cache-line-touch model behind the
// locality sweep (locality.go). It answers the question the bit-packed
// representation exists for, in a form a shared host's wall clock cannot:
// how many distinct 64-byte cache lines of *membership state* does one BFS
// run pull through each worker's cache?
//
// Like the work model (workmodel.go) and the scheduling model
// (stealmodel.go), it replays the kernel's rounds exactly — the same
// static vertex shards, the same per-vertex case split as the pull sweep,
// the same bfs.NextDirection decisions — but instead of counting work
// units it counts, per worker per round, the distinct cache lines touched
// in each membership array. Summing those first-touches-per-round is a
// compulsory-traffic proxy: a round's working set is what the worker must
// stream through its cache regardless of hit rate within the round.
//
// Only the arrays the representation axis changes are modelled:
//
//	word repr:   level (the pull filter and probe target) and visited
//	             (the push filter and winner flag) — uint32 cells,
//	             16 per 64-byte line. Discovery stores to level are
//	             charged: they are next round's probe targets.
//	bitmap repr: visBits (filter/winner), curBits (pull probes),
//	             nextBits (discovery buffer) — 1 bit per cell,
//	             512 per line.
//
// The CSR itself (offsets/targets) and the tuple payload (parent, selEdge,
// and — under the bitmap repr — level, which bitmap rounds write once per
// discovery but never read as membership) are identical under both
// representations and are deliberately excluded: including identical terms
// on both sides would only dilute the ratio the sweep exists to measure.
// The bitmap side is instead charged its structural
// extras — the per-level clearing round of the consumed buffer in pure
// pull, and the push→pull conversion round (clear + frontier fetch-ORs)
// in the hybrid — so the 512-cells-per-line advantage has to pay for its
// added rounds.
const (
	cellsPerWordLine = 16  // 64-byte line / 4-byte cell
	cellsPerBitLine  = 512 // 64-byte line / 1-bit cell
)

// Modelled membership arrays. Word and bit arrays are distinct identities:
// a level probe and a curBits probe of the same vertex touch different
// memory in the real kernels.
const (
	arrLevel    = iota // uint32; word repr (filter, probes, discovery stores)
	arrVisited         // uint32; word repr (push filter, winner flag)
	arrVisBits         // bits; bitmap repr (filter, winner flag)
	arrCurBits         // bits; bitmap repr (pull probes, hybrid conversion)
	arrNextBits        // bits; bitmap repr (discovery buffer, pure-pull clears)
	numArrs
)

// lineModel counts distinct line touches over one bfsModel's replay.
type lineModel struct {
	b *bfsModel
	// stamps[a][line] == epoch marks "line of array a already touched in
	// the current (worker, round) scope"; epoch bumps avoid clearing.
	stamps [numArrs][]uint32
	epoch  uint32
	// claimed[v] == claimEpoch marks "v already discovered this push
	// round", attributing the winner's stores to the worker whose arc the
	// id-order replay reaches first — the same first-claimant-wins rule
	// the CAS-LT (or fetch-OR) arbitration implements.
	claimed    []uint32
	claimEpoch uint32
	lines      uint64
}

// newLineModel wraps a bfsModel for line counting.
func newLineModel(b *bfsModel) *lineModel {
	lm := &lineModel{b: b, claimed: make([]uint32, b.n)}
	wordLines := (b.n + cellsPerWordLine - 1) / cellsPerWordLine
	bitLines := (b.n + cellsPerBitLine - 1) / cellsPerBitLine
	for a := 0; a < numArrs; a++ {
		if a == arrLevel || a == arrVisited {
			lm.stamps[a] = make([]uint32, wordLines)
		} else {
			lm.stamps[a] = make([]uint32, bitLines)
		}
	}
	return lm
}

func (lm *lineModel) touch(arr, line int) {
	if lm.stamps[arr][line] != lm.epoch {
		lm.stamps[arr][line] = lm.epoch
		lm.lines++
	}
}

func (lm *lineModel) touchWord(arr int, v uint32) { lm.touch(arr, int(v)/cellsPerWordLine) }
func (lm *lineModel) touchBit(arr int, v uint32)  { lm.touch(arr, int(v)/cellsPerBitLine) }

// pullRound replays one bottom-up level at L over the static vertex
// shards: the unreached filter, the neighbor probes (to the first hit for
// vertices this round discovers, the full list for still-unreached ones),
// and the winner's stores.
func (lm *lineModel) pullRound(L uint32, bitmap bool) {
	b := lm.b
	offsets, targets := b.g.Offsets(), b.g.Targets()
	for w := 0; w < b.p; w++ {
		lm.epoch++
		lo, hi := sched.BlockRange(b.n, b.p, w)
		for v := lo; v < hi; v++ {
			if bitmap {
				lm.touchBit(arrVisBits, uint32(v))
			} else {
				lm.touchWord(arrLevel, uint32(v))
			}
			lv := b.levels[v]
			if lv <= L {
				continue // reached: filter read only
			}
			probes := offsets[v+1] - offsets[v]
			if lv == L+1 {
				probes = b.firstHit[v] // discovered: scan stops at the hit
			}
			for j := offsets[v]; j < offsets[v]+probes; j++ {
				if bitmap {
					lm.touchBit(arrCurBits, targets[j])
				} else {
					lm.touchWord(arrLevel, targets[j])
				}
			}
			if lv == L+1 {
				if bitmap {
					lm.touchBit(arrVisBits, uint32(v))
					lm.touchBit(arrNextBits, uint32(v))
				} else {
					lm.touchWord(arrVisited, uint32(v))
					lm.touchWord(arrLevel, uint32(v)) // next round's probe target
				}
			}
		}
	}
}

// pushRound replays one frontier relaxation at level L: per examined arc
// the membership filter of its target, plus the winner's stores on the
// first arc of the round to reach each discovery (id-order first claimant,
// matching the arbitration rule). The frontier is block-split over the
// workers, as the kernel splits it with its stealing off, which is how the
// locality sweep runs it; a level below the kernel's grain runs on worker
// 0 alone (bfs.OneWorkerLevel), as in the kernel.
func (lm *lineModel) pushRound(L uint32, bitmap bool) {
	b := lm.b
	offsets, targets := b.g.Offsets(), b.g.Targets()
	f := b.byLevel[L]
	solo := bfs.OneWorkerLevel(uint64(len(f)), b.degLevel[L])
	lm.claimEpoch++
	for w := 0; w < b.p; w++ {
		lm.epoch++
		lo, hi := sched.BlockRange(len(f), b.p, w)
		if solo {
			// Worker 0 takes the whole level; every other share is empty.
			lo, hi = 0, 0
			if w == 0 {
				hi = len(f)
			}
		}
		for i := lo; i < hi; i++ {
			u := f[i]
			for j := offsets[u]; j < offsets[u+1]; j++ {
				t := targets[j]
				if bitmap {
					lm.touchBit(arrVisBits, t)
				} else {
					lm.touchWord(arrVisited, t)
				}
				if !bitmap && b.levels[t] == L+1 && lm.claimed[t] != lm.claimEpoch {
					lm.claimed[t] = lm.claimEpoch
					lm.touchWord(arrLevel, t) // next pull round's probe target
				}
			}
		}
	}
}

// clearRound replays one sharded ResetRange over a bit array: each
// worker's contiguous share streams its lines once.
func (lm *lineModel) clearRound(arr int) {
	b := lm.b
	for w := 0; w < b.p; w++ {
		lm.epoch++
		lo, hi := sched.BlockRange(b.n, b.p, w)
		for line := lo / cellsPerBitLine; line <= (hi-1)/cellsPerBitLine; line++ {
			lm.touch(arr, line)
		}
	}
}

// convRound replays the hybrid's push→pull conversion: a clearing round of
// curBits followed by a fetch-OR round over the frontier list.
func (lm *lineModel) convRound(L uint32) {
	b := lm.b
	lm.clearRound(arrCurBits)
	f := b.byLevel[L]
	for w := 0; w < b.p; w++ {
		lm.epoch++
		lo, hi := sched.BlockRange(len(f), b.p, w)
		for i := lo; i < hi; i++ {
			lm.touchBit(arrCurBits, f[i])
		}
	}
}

// Lines returns the modelled distinct-line-touch total of one kernel under
// one representation. Kernel names match the locality sweep: "bfs-pull"
// (pure bottom-up) and "bfs-hybrid" (direction-optimizing).
func (lm *lineModel) Lines(kernel string, bitmap bool) uint64 {
	b := lm.b
	lm.lines = 0
	switch kernel {
	case "bfs-pull":
		for L := 0; L <= b.depth; L++ {
			lm.pullRound(uint32(L), bitmap)
			if bitmap && L < b.depth {
				// Productive levels swap buffers and clear the consumed one.
				lm.clearRound(arrNextBits)
			}
		}
	case "bfs-hybrid":
		mf := uint64(b.g.Degree(b.source))
		mu := uint64(b.g.NumArcs()) - mf
		pull := false
		for L := 0; L <= b.depth; L++ {
			nf := uint64(len(b.byLevel[L]))
			pull = bfs.NextDirection(pull, mf, mu, nf, uint64(b.n))
			if pull {
				if bitmap {
					lm.convRound(uint32(L))
				}
				lm.pullRound(uint32(L), bitmap)
			} else {
				lm.pushRound(uint32(L), bitmap)
			}
			var disc uint64
			if L+1 <= b.depth {
				disc = b.degLevel[L+1]
			}
			mu -= disc
			mf = disc
		}
	default:
		panic("bench: no locality model for kernel " + kernel)
	}
	return lm.lines
}
