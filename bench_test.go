// Package crcwpram_test holds the repository's top-level benchmark suite:
// one testing.B family per paper figure (5 through 12) plus the ablation
// benchmarks called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks time exactly what the paper times — the kernel run,
// with initialization (Prepare) outside the timer. Sizes are scaled to a
// small machine; the cmd/crcwbench binary runs the full paper-style sweeps
// (including -paper sizes) with table output.
package crcwpram_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/alg/cc"
	"crcwpram/internal/alg/listrank"
	"crcwpram/internal/alg/matching"
	"crcwpram/internal/alg/maxfind"
	"crcwpram/internal/alg/mis"
	"crcwpram/internal/barrier"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

const benchThreads = 4

var figMethods = []cw.Method{cw.Naive, cw.Gatekeeper, cw.CASLT}
var ccBenchMethods = []cw.Method{cw.Gatekeeper, cw.CASLT}

func randList(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	l := make([]uint32, n)
	for i := range l {
		l[i] = rng.Uint32()
	}
	return l
}

// BenchmarkFig05MaxBySize: constant-time maximum, time vs list size
// (paper Figure 5).
func BenchmarkFig05MaxBySize(b *testing.B) {
	for _, method := range figMethods {
		for _, n := range []int{512, 1024, 2048} {
			b.Run(fmt.Sprintf("%s/N=%d", method, n), func(b *testing.B) {
				m := machine.New(benchThreads)
				defer m.Close()
				k := maxfind.NewKernel(m, n)
				list := randList(n, int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					k.Prepare(list)
					b.StartTimer()
					k.Run(method)
				}
			})
		}
	}
}

// BenchmarkFig06MaxByThreads: constant-time maximum, time vs thread count
// at fixed N (paper Figure 6, N=60K there).
func BenchmarkFig06MaxByThreads(b *testing.B) {
	const n = 2048
	list := randList(n, 6)
	for _, method := range figMethods {
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/p=%d", method, p), func(b *testing.B) {
				m := machine.New(p)
				defer m.Close()
				k := maxfind.NewKernel(m, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					k.Prepare(list)
					b.StartTimer()
					k.Run(method)
				}
			})
		}
	}
}

func benchBFS(b *testing.B, nv, ne, threads int, method cw.Method) {
	g := graph.ConnectedRandom(nv, ne, 7)
	m := machine.New(threads)
	defer m.Close()
	k := bfs.NewKernel(m, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k.Prepare(0)
		b.StartTimer()
		k.Run(method)
	}
}

// BenchmarkFig07BFSByEdges: BFS, time vs edge count (paper Figure 7:
// 100K vertices, 1M-30M edges, 32 threads).
func BenchmarkFig07BFSByEdges(b *testing.B) {
	for _, method := range figMethods {
		for _, ne := range []int{50000, 100000, 200000} {
			b.Run(fmt.Sprintf("%s/m=%d", method, ne), func(b *testing.B) {
				benchBFS(b, 10000, ne, benchThreads, method)
			})
		}
	}
}

// BenchmarkFig08BFSByVertices: BFS, time vs vertex count at fixed edges
// (paper Figure 8: 30M edges).
func BenchmarkFig08BFSByVertices(b *testing.B) {
	for _, method := range figMethods {
		for _, nv := range []int{5000, 10000, 20000} {
			b.Run(fmt.Sprintf("%s/n=%d", method, nv), func(b *testing.B) {
				benchBFS(b, nv, 100000, benchThreads, method)
			})
		}
	}
}

// BenchmarkFig09BFSByThreads: BFS, time vs thread count (paper Figure 9).
func BenchmarkFig09BFSByThreads(b *testing.B) {
	for _, method := range figMethods {
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/p=%d", method, p), func(b *testing.B) {
				benchBFS(b, 10000, 100000, p, method)
			})
		}
	}
}

func benchCC(b *testing.B, nv, ne, threads int, method cw.Method) {
	g := graph.RandomUndirected(nv, ne, 9)
	m := machine.New(threads)
	defer m.Close()
	k := cc.NewKernel(m, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k.Prepare()
		b.StartTimer()
		k.Run(method)
	}
}

// BenchmarkFig10CCByEdges: connected components, time vs edge count
// (paper Figure 10). No naive series: unsafe for the multi-array
// arbitrary hooking write.
func BenchmarkFig10CCByEdges(b *testing.B) {
	for _, method := range ccBenchMethods {
		for _, ne := range []int{50000, 100000, 200000} {
			b.Run(fmt.Sprintf("%s/m=%d", method, ne), func(b *testing.B) {
				benchCC(b, 10000, ne, benchThreads, method)
			})
		}
	}
}

// BenchmarkFig11CCByVertices: connected components, time vs vertex count
// (paper Figure 11).
func BenchmarkFig11CCByVertices(b *testing.B) {
	for _, method := range ccBenchMethods {
		for _, nv := range []int{5000, 10000, 20000} {
			b.Run(fmt.Sprintf("%s/n=%d", method, nv), func(b *testing.B) {
				benchCC(b, nv, 100000, benchThreads, method)
			})
		}
	}
}

// BenchmarkFig12CCByThreads: connected components, time vs thread count
// (paper Figure 12).
func BenchmarkFig12CCByThreads(b *testing.B) {
	for _, method := range ccBenchMethods {
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/p=%d", method, p), func(b *testing.B) {
				benchCC(b, 10000, 100000, p, method)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md Section 5)
// ---------------------------------------------------------------------------

// BenchmarkAblationCASLTPrecheck quantifies what the line-6 load pre-check
// saves versus always executing the CAS, and what the retry loop costs, on
// a fully contended cell.
func BenchmarkAblationCASLTPrecheck(b *testing.B) {
	variants := map[string]func(c *cw.Cell, r uint32) bool{
		"precheck": func(c *cw.Cell, r uint32) bool { return c.TryClaim(r) },
		"nocheck":  func(c *cw.Cell, r uint32) bool { return c.TryClaimNoCheck(r) },
		"retry":    func(c *cw.Cell, r uint32) bool { return c.Claim(r) },
	}
	for name, try := range variants {
		for _, writers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/w=%d", name, writers), func(b *testing.B) {
				var c cw.Cell
				var wg sync.WaitGroup
				rounds := b.N
				b.ResetTimer()
				wg.Add(writers)
				for w := 0; w < writers; w++ {
					go func() {
						defer wg.Done()
						for r := 1; r <= rounds; r++ {
							try(&c, uint32(r))
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkAblationGatekeeperCheck measures the paper's suggested
// mitigation: skipping the fetch-and-add once the gatekeeper is non-zero.
func BenchmarkAblationGatekeeperCheck(b *testing.B) {
	for _, checked := range []bool{false, true} {
		name := "plain"
		if checked {
			name = "checked"
		}
		for _, writers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/w=%d", name, writers), func(b *testing.B) {
				var g cw.Gate
				var wg sync.WaitGroup
				rounds := b.N
				b.ResetTimer()
				wg.Add(writers)
				for w := 0; w < writers; w++ {
					go func() {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							if checked {
								g.TryEnterChecked()
							} else {
								g.TryEnter()
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkAblationGateReset isolates the O(N) re-initialization pass the
// gatekeeper method pays between rounds and CAS-LT does not.
func BenchmarkAblationGateReset(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := cw.NewGateArray(n, cw.Packed)
			m := machine.New(benchThreads)
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ParallelRange(n, func(lo, hi, _ int) { g.ResetRange(lo, hi) })
			}
		})
	}
}

// BenchmarkAblationPadding compares packed vs cache-line-padded cell
// arrays under neighbouring-cell claims (false sharing).
func BenchmarkAblationPadding(b *testing.B) {
	for _, layout := range []cw.Layout{cw.Packed, cw.PaddedLayout} {
		b.Run(layout.String(), func(b *testing.B) {
			const cells = 16
			a := cw.NewArray(cells, layout)
			var wg sync.WaitGroup
			rounds := b.N
			b.ResetTimer()
			wg.Add(cells)
			for w := 0; w < cells; w++ {
				w := w
				go func() {
					defer wg.Done()
					for r := 1; r <= rounds; r++ {
						a.TryClaim(w, uint32(r)) // distinct cells: pure layout effect
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkAblationMutex prices the "trivial but bad" critical-section CW
// against CAS-LT on the maximum kernel.
func BenchmarkAblationMutex(b *testing.B) {
	const n = 1024
	list := randList(n, 11)
	for _, method := range []cw.Method{cw.CASLT, cw.Mutex} {
		b.Run(method.String(), func(b *testing.B) {
			m := machine.New(benchThreads)
			defer m.Close()
			k := maxfind.NewKernel(m, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k.Prepare(list)
				b.StartTimer()
				k.Run(method)
			}
		})
	}
}

// BenchmarkAblationBarrier compares barrier constructions under the
// machine (per-round synchronization cost).
func BenchmarkAblationBarrier(b *testing.B) {
	for _, kind := range barrier.Kinds {
		for _, p := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/p=%d", kind, p), func(b *testing.B) {
				m := machine.New(p, machine.WithBarrier(kind))
				defer m.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.ParallelFor(p, func(int) {})
				}
			})
		}
	}
}

// BenchmarkExtensionMaxWorkDepth is the comparison the paper's conclusion
// proposes: EREW/CREW algorithms "currently in use" against CRCW
// algorithms with better work-depth bounds, on the maximum problem.
// Sequential scan W(N); tournament (EREW) W(N) D(log N); reduction
// (priority CW) W(N) D(N/P); doubly-log (CRCW) W(N log log N)
// D(log log N); and the paper's constant-time CRCW kernel W(N^2) D(1).
func BenchmarkExtensionMaxWorkDepth(b *testing.B) {
	const n = 4096
	list := randList(n, 13)
	m := machine.New(benchThreads)
	defer m.Close()
	k := maxfind.NewKernel(m, n)
	algos := []struct {
		name string
		run  func() int
	}{
		{"sequential", func() int { return maxfind.Sequential(list) }},
		{"tournament-erew", func() int { return maxfind.TournamentMax(m, list) }},
		{"reduction-priority", func() int { return maxfind.ReduceMax(m, list) }},
		{"doubly-log-crcw", func() int { return maxfind.DoublyLogMax(m, list) }},
		{"constant-time-crcw", func() int {
			k.Prepare(list)
			return k.Run(cw.CASLT)
		}},
	}
	want := maxfind.Sequential(list)
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if a.run() != want {
					b.Fatal("wrong maximum")
				}
			}
		})
	}
}

// BenchmarkExtensionMISMethods compares the concurrent-write methods on a
// fourth kernel, Luby's maximal independent set, whose per-round
// neighbourhood-kill writes are common CWs like the maximum kernel's.
func BenchmarkExtensionMISMethods(b *testing.B) {
	g := graph.RandomUndirected(10000, 100000, 21)
	for _, method := range []cw.Method{cw.Naive, cw.Gatekeeper, cw.CASLT, cw.Mutex} {
		b.Run(method.String(), func(b *testing.B) {
			m := machine.New(benchThreads)
			defer m.Close()
			k := mis.NewKernel(m, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k.Prepare()
				b.StartTimer()
				k.Run(method, uint64(i))
			}
		})
	}
}

// BenchmarkExtensionMatching measures the two-level arbitrary-CW maximal
// matching against its greedy sequential baseline.
func BenchmarkExtensionMatching(b *testing.B) {
	g := graph.RandomUndirected(10000, 50000, 23)
	b.Run("greedy-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.SequentialGreedy(g)
		}
	})
	b.Run("parallel-caslt", func(b *testing.B) {
		m := machine.New(benchThreads)
		defer m.Close()
		k := matching.NewKernel(m, g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			k.Prepare()
			b.StartTimer()
			k.Run(uint64(i))
		}
	})
}

// BenchmarkExtensionListRank measures Wyllie's EREW list ranking (the
// machine's non-CW workload) against its sequential baseline.
func BenchmarkExtensionListRank(b *testing.B) {
	const n = 1 << 15
	next := listrank.RandomList(n, 3)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			listrank.SequentialRank(next)
		}
	})
	b.Run("wyllie", func(b *testing.B) {
		m := machine.New(benchThreads)
		defer m.Close()
		for i := 0; i < b.N; i++ {
			listrank.Rank(m, next)
		}
	})
}

// BenchmarkAblationBFSFrontier compares the paper's full-sweep BFS
// formulation (Figure 3: scan all N vertices per level) against the
// frontier-compacted refinement, both under CAS-LT, on a deep path where
// the sweep pays Θ(N) per level and on a shallow random graph where both
// are comparable.
func BenchmarkAblationBFSFrontier(b *testing.B) {
	graphs := map[string]*graph.Graph{
		"path-2k":    graph.Path(2000),
		"random-10k": graph.ConnectedRandom(10000, 100000, 3),
	}
	for name, g := range graphs {
		for _, variant := range []string{"sweep", "frontier"} {
			b.Run(name+"/"+variant, func(b *testing.B) {
				m := machine.New(benchThreads)
				defer m.Close()
				k := bfs.NewKernel(m, g)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					k.Prepare(0)
					b.StartTimer()
					if variant == "sweep" {
						k.Run(cw.CASLT)
					} else {
						k.RunCASLTFrontier()
					}
				}
			})
		}
	}
}

// BenchmarkAblationScheduler compares loop partitioning policies on a
// uniform body.
func BenchmarkAblationScheduler(b *testing.B) {
	const n = 1 << 16
	for _, policy := range sched.Policies {
		b.Run(policy.String(), func(b *testing.B) {
			m := machine.New(benchThreads, machine.WithPolicy(policy), machine.WithChunk(512))
			defer m.Close()
			sink := make([]uint32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ParallelFor(n, func(j int) { sink[j]++ })
			}
		})
	}
}
