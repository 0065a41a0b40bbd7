package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crcwpram/internal/barrier"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
)

// The ladder's rungs time one primitive of each layer in isolation, with
// no other machine alive: idle machine workers spin, so a rung measured
// next to one reads the spinning as cost. Each repetition is short, and
// the repetitions are spread over the gaps between slices so that a rung's
// median samples the whole run.
const (
	cwCells      = 4096 // 16 KiB of packed cells: L1-resident
	cwPasses     = 16
	contendedOps = 20_000
	emptyRounds  = 500
	barrierPhase = 500
	stealN       = 1 << 18
)

// rungs holds the workload-independent rung samples, in ns (us for
// machine.new_close_us).
type rungs struct {
	samples map[string][]float64
	// def is the backend a machine gets by default.
	def   machine.Exec
	round uint32 // CAS-LT round id of the uncontended rungs' array
	cells *cw.Array
	gates *cw.GateArray
	bits  *cw.BitArray
}

func newRungs() *rungs {
	return &rungs{
		samples: map[string][]float64{},
		cells:   cw.NewArray(cwCells, cw.Packed),
		gates:   cw.NewGateArray(cwCells, cw.Packed),
		bits:    cw.NewBitArray(cwCells),
	}
}

func (r *rungs) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// emptyRoundName is the rung name of one backend's empty round.
func emptyRoundName(e machine.Exec) string { return "exec.empty_round_ns." + e.String() }

// measure takes reps repetitions of every rung on p workers.
func (r *rungs) measure(p, reps int) error {
	g0 := runtime.NumGoroutine()
	for i := 0; i < reps; i++ {
		r.claims()
		r.add("cw.claim_ns.contended", contended(p))
		for _, k := range barrier.Kinds {
			r.add("barrier."+k.String()+"_ns", barrierPhaseNs(k, p))
		}
		t := time.Now()
		machine.New(p).Close()
		r.add("machine.new_close_us", float64(time.Since(t))/1e3)
	}
	for _, e := range machine.Execs {
		m := machine.New(p, machine.WithExec(e))
		for i := 0; i < reps; i++ {
			r.add(emptyRoundName(e), emptyRoundNs(m, e))
		}
		m.Close()
	}
	m := machine.New(p)
	r.def = m.Exec()
	for i := 0; i < reps; i++ {
		r.add("sched.steal_chunk_ns", stealChunkNs(m))
	}
	m.Close()
	return settle("rungs", g0)
}

// claims times one repetition of the single-goroutine cw rungs: a winning
// CAS-LT claim on a fresh round, a claim resolved by the pre-check, a
// gatekeeper fetch-and-add, and a bit-packed claim.
func (r *rungs) claims() {
	var win, skip, gate, bit time.Duration
	for pass := 0; pass < cwPasses; pass++ {
		r.round++
		t := time.Now()
		for i := 0; i < cwCells; i++ {
			r.cells.TryClaim(i, r.round)
		}
		win += time.Since(t)
		t = time.Now()
		for i := 0; i < cwCells; i++ {
			r.cells.TryClaim(i, r.round)
		}
		skip += time.Since(t)

		r.gates.ResetRange(0, cwCells)
		t = time.Now()
		for i := 0; i < cwCells; i++ {
			r.gates.TryEnter(i)
		}
		gate += time.Since(t)

		r.bits.ResetRange(0, cwCells)
		t = time.Now()
		for i := 0; i < cwCells; i++ {
			r.bits.TryClaimBit(i)
		}
		bit += time.Since(t)
	}
	per := float64(cwPasses * cwCells)
	r.add("cw.claim_ns.uncontended", float64(win)/per)
	r.add("cw.claim_ns.precheck_hit", float64(skip)/per)
	r.add("cw.gate_enter_ns", float64(gate)/per)
	r.add("cw.bit_claim_ns", float64(bit)/per)
}

// contended returns the wall time per round of p goroutines racing for
// one CAS-LT cell, each attempt targeting the next fresh round: one
// attempt per round wins, the rest lose the CAS or fail the pre-check.
func contended(p int) float64 {
	var c cw.Cell
	var ready sync.WaitGroup
	var done sync.WaitGroup
	var start atomic.Bool
	ready.Add(p)
	done.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer done.Done()
			ready.Done()
			for !start.Load() {
				runtime.Gosched()
			}
			for i := 0; i < contendedOps; i++ {
				c.TryClaim(c.Round() + 1)
			}
		}()
	}
	ready.Wait()
	t := time.Now()
	start.Store(true)
	done.Wait()
	return float64(time.Since(t)) / float64(c.Round())
}

// barrierPhaseNs returns the time of one phase of a p-party barrier of
// kind k, the caller being party 0.
func barrierPhaseNs(k barrier.Kind, p int) float64 {
	b := barrier.New(k, p)
	var done sync.WaitGroup
	done.Add(p - 1)
	for w := 1; w < p; w++ {
		go func() {
			defer done.Done()
			for i := 0; i <= barrierPhase; i++ {
				b.Wait(w)
			}
		}()
	}
	b.Wait(0) // align the party before timing
	t := time.Now()
	for i := 0; i < barrierPhase; i++ {
		b.Wait(0)
	}
	d := time.Since(t)
	done.Wait()
	return float64(d) / barrierPhase
}

// emptyRoundNs returns the cost of one empty work-shared round under
// backend e: pure synchronization.
func emptyRoundNs(m *machine.Machine, e machine.Exec) float64 {
	p := m.P()
	t := time.Now()
	exec.Run(m, e, func(ctx exec.Ctx) {
		for i := 0; i < emptyRounds; i++ {
			ctx.For(p, func(int) {})
		}
	})
	return float64(time.Since(t)) / emptyRounds
}

// stealChunkNs returns the cost per dispatched chunk of one stealing loop
// with an empty body, on the machine's default backend.
func stealChunkNs(m *machine.Machine) float64 {
	counts := make([]uint64, 8*m.P()) // one cache line per worker
	t := time.Now()
	exec.Run(m, m.Exec(), func(ctx exec.Ctx) {
		ctx.StealRange(stealN, func(_, _, w int) { counts[8*w]++ })
	})
	d := time.Since(t)
	var chunks uint64
	for w := 0; w < m.P(); w++ {
		chunks += counts[8*w]
	}
	if chunks == 0 {
		panic(fmt.Sprintf("benchmark: stealing loop over %d indices dispatched no chunk", stealN))
	}
	return float64(d) / float64(chunks)
}
