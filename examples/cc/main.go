// CC runs the Awerbuch-Shiloach connected-components kernel — the paper's
// arbitrary-CW benchmark — on a generated random graph, validates the
// labelling and the spanning forest recovered from the hook records, and
// reports times — a miniature of the paper's Figures 10-12. The naive
// method is deliberately absent: the hooking write updates multiple arrays
// and is unsafe without winner selection (the paper, Section 7).
//
// Run:
//
//	go run ./examples/cc [-n 20000] [-m 100000] [-threads 4] [-reps 3]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"crcwpram/internal/alg/cc"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/stats"
)

func main() {
	n := flag.Int("n", 20000, "vertices")
	m := flag.Int("m", 100000, "edges")
	threads := flag.Int("threads", 4, "worker count")
	reps := flag.Int("reps", 3, "repetitions per method (median reported)")
	seed := flag.Int64("seed", 42, "graph seed")
	flag.Parse()

	g := graph.RandomUndirected(*n, *m, *seed)
	st := graph.ComputeStats(g)
	fmt.Println("graph:", st)

	mach := machine.New(*threads)
	defer mach.Close()
	k := cc.NewKernel(mach, g)

	methods := []cw.Method{cw.Gatekeeper, cw.GatekeeperChecked, cw.CASLT, cw.Mutex}
	medians := map[cw.Method]time.Duration{}
	for _, method := range methods {
		var s stats.Sample
		var iters int
		for r := 0; r < *reps; r++ {
			k.Prepare()
			start := time.Now()
			res := k.Run(method)
			s.Add(time.Since(start))
			iters = res.Iterations
			if err := cc.Validate(g, res); err != nil {
				log.Fatalf("%v: %v", method, err)
			}
		}
		medians[method] = s.Median()
		fmt.Printf("%-19s %12s  (%d iterations, %d components)\n",
			method, stats.FormatDuration(s.Median()), iters, st.Components)
	}

	fmt.Println("\nspeedup vs gatekeeper (the paper's Figure 10 comparison):")
	for _, method := range methods {
		if method == cw.Gatekeeper {
			continue
		}
		fmt.Printf("%-19s %8s\n", method, stats.FormatRatio(stats.Speedup(medians[cw.Gatekeeper], medians[method])))
	}

	// The hook records double as a spanning forest — count its edges.
	k.Prepare()
	res := k.Run(cw.CASLT)
	hooks := 0
	for _, e := range res.HookEdge {
		if e != cc.NoHook {
			hooks++
		}
	}
	fmt.Printf("\nspanning forest from hook records: %d edges = %d vertices - %d components\n",
		hooks, g.NumVertices(), st.Components)
}
