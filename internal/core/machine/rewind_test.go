package machine_test

import (
	"fmt"
	"math"
	"testing"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/kernel"

	_ "crcwpram/internal/alg/bfs"
	_ "crcwpram/internal/alg/cc"
	_ "crcwpram/internal/alg/listrank"
	_ "crcwpram/internal/alg/matching"
	_ "crcwpram/internal/alg/maxfind"
	_ "crcwpram/internal/alg/mis"
)

// TestRegistryAcrossRoundRewind runs every registered kernel across the
// machine's round-id rewind, so that a new kernel inherits the test by
// registering. Each variant starts its machine's counter at one of three
// ids and makes four runs per method on one kernel instance, alternating
// team and trace from its first backend; every run must validate and
// match the bare reference byte for byte. The starts are chosen so that
// the test fails if a kernel leaves a CAS-LT array undeclared (its stamps
// from above the threshold outrank the restarted ids), if the rewind is
// disabled (MaxUint32−2 wraps to 0), or if a trace replay can rewind in
// the middle of a run (at threshold−3, cc draws its second hook phase's id
// across the threshold). The machines have two workers, so each team
// region closes over two copies of the counter; every one of those
// failures shows at P = 1 and at P = 2 alike, and one worker count keeps
// the test's cost under the race detector down.
func TestRegistryAcrossRoundRewind(t *testing.T) {
	team, trace := machine.ExecTeam, machine.ExecTrace
	var variants []kernel.Variant
	for _, start := range []uint32{machine.RoundRewind - 3, machine.RoundRewind - 2, math.MaxUint32 - 2} {
		for _, order := range [][2]machine.Exec{{team, trace}, {trace, team}} {
			variants = append(variants, kernel.Variant{
				Name: fmt.Sprintf("round=%d first=%s", start, order[0]),
				Options: func(int) []machine.Option {
					return []machine.Option{machine.WithRound(start)}
				},
				Runs: func(_ *kernel.Descriptor, _ int, method cw.Method) []kernel.Run {
					runs := make([]kernel.Run, 4)
					for i := range runs {
						runs[i] = kernel.Run{Settings: kernel.Settings{Exec: order[i%2], Method: method}}
					}
					return runs
				},
				Inputs: smallestInput,
			})
		}
	}
	if err := kernel.Differential(kernel.Default, []int{2}, variants...); err != nil {
		t.Fatal(err)
	}
}

// smallestInput picks d's matrix input with the fewest vertices plus arcs,
// or list or chain elements.
func smallestInput(d *kernel.Descriptor) []kernel.NamedWorkload {
	size := func(w kernel.Workload) int {
		if w.Graph != nil {
			return w.Graph.NumVertices() + w.Graph.NumArcs()
		}
		return len(w.List) + len(w.Next)
	}
	ws := kernel.MatrixWorkloads(d)
	best := ws[0]
	for _, nw := range ws[1:] {
		if size(nw.W) < size(best.W) {
			best = nw
		}
	}
	return []kernel.NamedWorkload{best}
}
