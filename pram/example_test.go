package pram_test

import (
	"fmt"

	"crcwpram/pram"
)

// The paper's core pattern: an arbitrary concurrent write where many
// virtual processors race on one cell and exactly one commits, with
// round advancement replacing any re-initialization.
func Example_arbitraryWrite() {
	m := pram.NewMachine(2)
	defer m.Close()

	var cell pram.Cell
	m.Stamp(&cell) // claimed with m's round ids
	value := 0

	round := m.NextRound()
	m.ParallelFor(100, func(i int) {
		if cell.TryClaim(round) {
			value = i + 1 // exactly one of the 100 writers commits
		}
	})
	fmt.Println("written:", value > 0, "— round:", cell.Round())

	// Next concurrent write to the same cell: just a bigger round id.
	round = m.NextRound()
	m.ParallelFor(100, func(i int) {
		if cell.TryClaim(round) {
			value = -(i + 1)
		}
	})
	fmt.Println("rewritten:", value < 0, "— round:", cell.Round())
	// Output:
	// written: true — round: 1
	// rewritten: true — round: 2
}

// Multi-word payloads commit atomically through a typed Slot: the winner's
// whole struct survives, fields can never mix between writers.
func Example_structPayload() {
	type match struct {
		Index int
		Score float64
		Label string
	}

	m := pram.NewMachine(2)
	defer m.Close()

	var best pram.Slot[match]
	m.Stamp(&best)
	round := m.NextRound()
	m.ParallelFor(10, func(i int) {
		// All writers offer self-consistent structs; one commits whole.
		best.TryWrite(round, match{Index: i, Score: float64(i) / 2, Label: "candidate"})
	})
	got := best.Load()
	fmt.Println(got.Label, got.Score == float64(got.Index)/2)
	// Output:
	// candidate true
}

// The gatekeeper comparison in miniature: after one winner exists, the
// gatekeeper must be Reset before the cell can host another concurrent
// write, while CAS-LT just uses the next round id.
func Example_gatekeeperVsCASLT() {
	var g pram.Gate
	fmt.Println("gate round 1:", g.TryEnter(), g.TryEnter())
	fmt.Println("gate round 2 without reset:", g.TryEnter())
	g.Reset()
	fmt.Println("gate round 2 after reset:", g.TryEnter())

	var c pram.Cell
	fmt.Println("caslt round 1:", c.TryClaim(1), c.TryClaim(1))
	fmt.Println("caslt round 2, no reset:", c.TryClaim(2))
	// Output:
	// gate round 1: true false
	// gate round 2 without reset: false
	// gate round 2 after reset: true
	// caslt round 1: true false
	// caslt round 2, no reset: true
}
