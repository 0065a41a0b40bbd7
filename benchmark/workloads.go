package main

import (
	"math/rand"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"

	// The algorithm packages register their kernels at init.
	_ "crcwpram/internal/alg/bfs"
	_ "crcwpram/internal/alg/cc"
	_ "crcwpram/internal/alg/maxfind"
)

// workload is one benchmark input: a registered kernel, its per-run
// settings and an input generator driven only by the seed. Every input is
// sized to stay resident in a 2 MiB per-core L2, because the last-level
// cache is shared with other tenants and a larger working set drifts with
// their load.
type workload struct {
	name, why string
	kernel    string
	method    cw.Method
	bitmap    bool
	// observed runs the kernel on an event-traced machine, the only
	// configuration that exercises the metrics shards, claim hooks and
	// flight-recorder rings.
	observed bool
	gen      func(seed int64) kernel.Workload
}

// workloads is the benchmark's fixed workload table, in presentation order.
var workloads = []*workload{
	{
		name:   "bfs_sweep",
		why:    "the paper's headline BFS: arc scans and CAS-LT claims do the work, with few rounds and no stealing",
		kernel: "bfs", method: cw.CASLT,
		gen: connected,
	},
	{
		name:   "bfs_rmat",
		why:    "same problem on a skewed RMAT graph: kernel stealing, bit-packed visited sets and pull rounds carry it",
		kernel: "bfs-hybrid", method: cw.CASLT, bitmap: true,
		gen: func(seed int64) kernel.Workload {
			return kernel.Workload{Graph: graph.RMAT(14, 8<<14, .57, .19, .19, seed)}
		},
	},
	{
		name:   "cc_hook",
		why:    "the paper's CC uses both claims and many rounds; arbitrary winners vary the iteration count",
		kernel: "cc", method: cw.CASLT,
		gen: func(seed int64) kernel.Workload {
			return kernel.Workload{Graph: graph.RandomUndirected(20_000, 200_000, seed)}
		},
	},
	{
		name:   "grid_rounds",
		why:    "thousands of near-empty rounds: round and barrier cost dominate, claims and compute are tiny",
		kernel: "bfs-frontier", method: cw.CASLT,
		gen: func(seed int64) kernel.Workload {
			// Every corner of the 4096x4 grid has the same eccentricity, so
			// the seed moves the source without changing the round count.
			const rows, cols = 4096, 4
			corners := [4]uint32{0, cols - 1, (rows - 1) * cols, rows*cols - 1}
			return kernel.Workload{Graph: graph.Grid2D(rows, cols), Source: corners[uint64(seed)%4]}
		},
	},
	{
		name:   "maxfind_cw",
		why:    "the paper's Section 3 kernel: millions of CW selections in one round, nearly all resolved by the pre-check",
		kernel: "maxfind", method: cw.CASLT,
		gen: func(seed int64) kernel.Workload {
			rng := rand.New(rand.NewSource(seed))
			list := make([]uint32, 2048)
			for i := range list {
				list[i] = rng.Uint32()
			}
			return kernel.Workload{List: list}
		},
	},
	{
		name:   "bfs_observed",
		why:    "bfs_sweep with the event tracer on: the only workload paying for metrics shards, claim hooks and rings",
		kernel: "bfs", method: cw.CASLT,
		observed: true,
		gen:      connected,
	},
}

func connected(seed int64) kernel.Workload {
	return kernel.Workload{Graph: graph.ConnectedRandom(20_000, 200_000, seed)}
}

// descriptor returns the workload's registered kernel.
func (w *workload) descriptor() *kernel.Descriptor {
	d, ok := kernel.Lookup(w.kernel)
	if !ok {
		panic("benchmark: kernel " + w.kernel + " is not registered")
	}
	return d
}

// settings returns the per-run settings on machine m: its default backend,
// and the kernel's own stealing default.
func (w *workload) settings(m *machine.Machine) kernel.Settings {
	return kernel.Settings{Exec: m.Exec(), Method: w.method, Bitmap: w.bitmap}
}

// options returns the machine options of the workload's timed runs.
func (w *workload) options(p int) []machine.Option {
	if w.observed {
		return []machine.Option{machine.WithEventTrace(evtrace.New(p, evtrace.DefaultCap))}
	}
	return nil
}

// lookupWorkload returns the named workload, or nil.
func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
