// Quickstart: the smallest complete use of the public API.
//
// N*W virtual processors perform an arbitrary concurrent write: W writers
// race on each of N cells, each trying to commit its own id. CAS-LT picks
// exactly one winner per cell per round; everyone else skips the write.
// A second round then overwrites half the cells — with no re-initialization
// of any auxiliary state, because advancing the round id is all CAS-LT
// needs (the paper's key property).
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"crcwpram/pram"
)

func main() {
	const (
		n       = 8 // concurrent-write targets
		writers = 4 // competing writers per target
		workers = 4 // physical workers
	)

	m := pram.NewMachine(workers)
	defer m.Close()

	cells := pram.NewCellArray(n, pram.Packed)
	m.Stamp(cells) // claimed with m's round ids: reset if the ids ever rewind
	data := make([]int, n)

	// Round 1: every target is written by `writers` virtual processors,
	// each offering a different value — an arbitrary concurrent write.
	round := m.NextRound()
	m.ParallelFor(n*writers, func(i int) {
		target := i % n
		if cells.TryClaim(target, round) {
			data[target] = i // winner's value; losers skip
		}
	})
	// The ParallelFor's implicit barrier is the synchronization point the
	// paper requires before dependent reads.
	fmt.Println("after round 1:")
	for i, v := range data {
		if v%n != i {
			log.Fatalf("cell %d holds %d — not one of its writers' values", i, v)
		}
		fmt.Printf("  data[%d] = %d (writer %d of %d won)\n", i, v, v/n, writers)
	}

	// Round 2: rewrite the even cells. No gatekeeper-style reset pass —
	// just a new round id.
	round = m.NextRound()
	m.ParallelFor(n/2*writers, func(i int) {
		target := (i % (n / 2)) * 2
		if cells.TryClaim(target, round) {
			data[target] = -1
		}
	})
	fmt.Println("after round 2 (even cells rewritten, zero re-initialization):")
	for i, v := range data {
		fmt.Printf("  data[%d] = %d\n", i, v)
		if i%2 == 0 && v != -1 {
			log.Fatalf("cell %d not rewritten", i)
		}
	}
}
