// Package bench is the experiment harness that regenerates the paper's
// evaluation (Figures 5 through 12): for each figure it sweeps the same
// parameter the paper sweeps, times every concurrent-write method on the
// same prepared inputs, and renders a table with per-point speedups and the
// geometric-mean speedup the paper reports.
//
// Timing follows the paper's protocol: "any provided measurement of
// execution time excludes all time spent in initialization code" — kernels
// pre-allocate in NewKernel and re-initialize in Prepare, and only Run is
// inside the timed region. Each point is measured Reps times and the median
// is reported.
//
// The package divides into timed drivers and counting/observability
// drivers, and the distinction matters when reading its numbers:
//
//   - TIMED (production measurement): the figure sweeps (figures.go), the
//     round-overhead microbenchmark (roundoverhead.go), the edge-balance
//     sweep (edgebalance.go) and the list-ranking sweep (listrank.go) run
//     uninstrumented kernels and report wall time.
//   - COUNTING/OBSERVABILITY (never timings): the Section-6 op-count table
//     (opcount.go) and the whole-kernel op counts (kernelops.go) read the
//     claims a metrics machine records on its shards, the latter from the
//     serial trace backend's replay, and the live-contention sweep
//     (metrics.go) runs instrumented kernels with the per-cell probe
//     attached; all three deliberately report operation counts without
//     ns/op, because their instrumentation perturbs timing.
package bench

import (
	"fmt"
	"io"
	"time"

	"crcwpram/internal/bench/sweep"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
	"crcwpram/internal/stats"
)

// Config controls an experiment sweep. Zero values are filled from
// DefaultConfig.
type Config struct {
	// Threads is the worker count for fixed-thread figures (the paper
	// uses 32, the full core count of an Andes node).
	Threads int
	// ThreadSweep is the x-axis for the threads figures (6, 9, 12).
	ThreadSweep []int
	// Reps is the number of repetitions per point; the median is
	// reported.
	Reps int
	// Seed makes workload generation deterministic.
	Seed int64
	// Methods are the concurrent-write methods to compare; defaults to
	// the paper's set for the figure at hand.
	Methods []cw.Method
	// Exec selects how kernels drive the machine: machine.ExecTeam (one
	// persistent parallel region per kernel, the default) or
	// machine.ExecTrace (the serial counting replay).
	Exec machine.Exec

	// MaxSizes is the list-size x-axis of Figure 5.
	MaxSizes []int
	// MaxN is the fixed list size of Figure 6 (paper: 60K).
	MaxN int

	// BFSVertices is the fixed vertex count of Figures 7 and 9 (paper:
	// 100K).
	BFSVertices int
	// BFSEdgeSweep is the edge-count x-axis of Figure 7.
	BFSEdgeSweep []int
	// BFSEdges is the fixed edge count of Figures 8 and 9 (paper: 30M).
	BFSEdges int
	// BFSVertexSweep is the vertex-count x-axis of Figure 8.
	BFSVertexSweep []int

	// CCVertices, CCEdgeSweep, CCEdges, CCVertexSweep mirror the BFS
	// fields for Figures 10-12.
	CCVertices    int
	CCEdgeSweep   []int
	CCEdges       int
	CCVertexSweep []int

	// ListRankSizes is the list-length x-axis of the list-ranking sweep
	// (the EREW comparison point the paper's conclusion proposes).
	ListRankSizes []int

	// Balance selects the work-partitioning policy the BFS figures hand to
	// their kernels (the -balance axis); the zero value is the paper's
	// vertex-count split.
	Balance graph.Balance
	// Policy selects the machines' loop-scheduling policy for the figure
	// and list-ranking sweeps (the -policy axis); the zero value is Block,
	// the static split every other sweep uses.
	Policy sched.Policy
	// EBScale and EBStar size the edge-balance sweep's workloads: an RMAT
	// graph on 2^EBScale vertices with 8·2^EBScale edges, and the star on
	// EBStar vertices.
	EBScale int
	EBStar  int

	// StealScale sizes the stealing sweep's workloads (an RMAT graph and a
	// uniform random graph, both on 2^StealScale vertices with
	// 4·2^StealScale edges); StealThreads is its worker-count axis.
	StealScale   int
	StealThreads []int

	// LocScale sizes the locality sweep's workload (an RMAT graph on
	// 2^LocScale vertices with 8·2^LocScale edges); LocThreads is its
	// worker-count axis; Relabels restricts its CSR-relabeling axis (the
	// -relabel list; empty means all of graph.RelabelModes).
	LocScale   int
	LocThreads []int
	Relabels   []graph.RelabelMode

	// Log, when non-nil, receives progress lines during a sweep.
	Log io.Writer

	// Events, when non-nil, attaches an event-trace flight recorder
	// (internal/core/trace) to every machine the sweeps build through
	// the sweep engine. The caller owns the sink: it can serve the live
	// endpoint while sweeps run and drain the merged Timeline when they
	// finish. Nil (the default) is tracing off. Timed medians taken with
	// a sink attached carry the recorder's (small, benchmarked) span
	// cost; the committed figure baselines are always produced with it
	// nil.
	Events *evtrace.Sink
}

// newRunner builds the sweep engine for one driver, threading the
// config's event-trace sink (nil means tracing off) so every machine a
// sweep creates shows up in the merged timeline.
func (cfg Config) newRunner() *sweep.Runner {
	r := sweep.NewRunner(cfg.Reps)
	r.Events = cfg.Events
	return r
}

// DefaultConfig returns a configuration scaled to finish in minutes on a
// small shared machine while preserving every sweep's shape. Use
// PaperConfig for the paper's actual sizes.
func DefaultConfig() Config {
	return Config{
		Threads:        4,
		ThreadSweep:    []int{1, 2, 4, 8, 16, 32},
		Reps:           3,
		Seed:           42,
		MaxSizes:       []int{256, 512, 1024, 2048, 4096},
		MaxN:           2048,
		BFSVertices:    20000,
		BFSEdgeSweep:   []int{50000, 100000, 200000, 400000, 800000},
		BFSEdges:       400000,
		BFSVertexSweep: []int{5000, 10000, 20000, 40000, 80000},
		CCVertices:     20000,
		CCEdgeSweep:    []int{50000, 100000, 200000, 400000, 800000},
		CCEdges:        400000,
		CCVertexSweep:  []int{5000, 10000, 20000, 40000, 80000},
		ListRankSizes:  []int{4096, 16384, 65536},
		EBScale:        16,
		EBStar:         1 << 16,
		StealScale:     16,
		StealThreads:   []int{2, 4, 8},
		LocScale:       16,
		LocThreads:     []int{2, 4, 8},
		Relabels:       graph.RelabelModes,
	}
}

// TinyConfig returns a miniature configuration for smoke tests: every
// figure completes in seconds. Shapes measured at this scale are not
// meaningful.
func TinyConfig() Config {
	return Config{
		Threads:        2,
		ThreadSweep:    []int{1, 2},
		Reps:           1,
		Seed:           42,
		MaxSizes:       []int{64, 128},
		MaxN:           128,
		BFSVertices:    500,
		BFSEdgeSweep:   []int{1000, 2000},
		BFSEdges:       2000,
		BFSVertexSweep: []int{250, 500},
		CCVertices:     500,
		CCEdgeSweep:    []int{1000, 2000},
		CCEdges:        2000,
		CCVertexSweep:  []int{250, 500},
		ListRankSizes:  []int{128, 256},
		EBScale:        8,
		EBStar:         1 << 8,
		StealScale:     8,
		StealThreads:   []int{2, 4},
		LocScale:       8,
		LocThreads:     []int{2},
		Relabels:       graph.RelabelModes,
	}
}

// PaperConfig returns the paper's experimental parameters: 32 threads,
// 100K-vertex graphs with up to 30M edges, 60K-element lists. Running it
// requires a machine comparable to an OLCF Andes node.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Threads = 32
	c.ThreadSweep = []int{1, 2, 4, 8, 16, 32}
	c.Reps = 5
	c.MaxSizes = []int{10000, 20000, 30000, 40000, 50000, 60000}
	c.MaxN = 60000
	c.BFSVertices = 100000
	c.BFSEdgeSweep = []int{1000000, 5000000, 10000000, 20000000, 30000000}
	c.BFSEdges = 30000000
	c.BFSVertexSweep = []int{25000, 50000, 100000, 200000, 400000}
	c.CCVertices = 100000
	c.CCEdgeSweep = []int{1000000, 5000000, 10000000, 20000000, 30000000}
	c.CCEdges = 30000000
	c.CCVertexSweep = []int{25000, 50000, 100000, 200000, 400000}
	c.ListRankSizes = []int{100000, 400000, 1600000}
	return c
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Threads == 0 {
		c.Threads = d.Threads
	}
	if len(c.ThreadSweep) == 0 {
		c.ThreadSweep = d.ThreadSweep
	}
	if c.Reps == 0 {
		c.Reps = d.Reps
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if len(c.MaxSizes) == 0 {
		c.MaxSizes = d.MaxSizes
	}
	if c.MaxN == 0 {
		c.MaxN = d.MaxN
	}
	if c.BFSVertices == 0 {
		c.BFSVertices = d.BFSVertices
	}
	if len(c.BFSEdgeSweep) == 0 {
		c.BFSEdgeSweep = d.BFSEdgeSweep
	}
	if c.BFSEdges == 0 {
		c.BFSEdges = d.BFSEdges
	}
	if len(c.BFSVertexSweep) == 0 {
		c.BFSVertexSweep = d.BFSVertexSweep
	}
	if c.CCVertices == 0 {
		c.CCVertices = d.CCVertices
	}
	if len(c.CCEdgeSweep) == 0 {
		c.CCEdgeSweep = d.CCEdgeSweep
	}
	if c.CCEdges == 0 {
		c.CCEdges = d.CCEdges
	}
	if len(c.CCVertexSweep) == 0 {
		c.CCVertexSweep = d.CCVertexSweep
	}
	if len(c.ListRankSizes) == 0 {
		c.ListRankSizes = d.ListRankSizes
	}
	if c.EBScale == 0 {
		c.EBScale = d.EBScale
	}
	if c.EBStar == 0 {
		c.EBStar = d.EBStar
	}
	if c.StealScale == 0 {
		c.StealScale = d.StealScale
	}
	if len(c.StealThreads) == 0 {
		c.StealThreads = d.StealThreads
	}
	if c.LocScale == 0 {
		c.LocScale = d.LocScale
	}
	if len(c.LocThreads) == 0 {
		c.LocThreads = d.LocThreads
	}
	if len(c.Relabels) == 0 {
		c.Relabels = d.Relabels
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format, args...)
	}
}

// newMachine builds a sweep machine honoring the config's scheduling
// policy.
func (c Config) newMachine(p int) *machine.Machine {
	return machine.New(p, machine.WithPolicy(c.Policy))
}

// Point is one measured cell of a figure: method's median time at one
// x-axis position.
type Point struct {
	Median time.Duration
	Sample stats.Sample
}

// Series is one curve of a figure.
type Series struct {
	Method cw.Method
	Points []Point
}

// Table is one reproduced figure.
type Table struct {
	ID       string // e.g. "fig5"
	Title    string
	Kernel   string // kernel name for machine-readable output
	Exec     string // execution mode the series were measured under
	Balance  string // work-partitioning policy, when the kernel honors one
	Policy   string // machine loop-scheduling policy the sweep ran under
	XLabel   string
	Xs       []int
	Series   []Series
	Baseline cw.Method // speedups reported as baseline / method
}

// seriesFor returns the Series for a method, or nil.
func (t *Table) seriesFor(m cw.Method) *Series {
	for i := range t.Series {
		if t.Series[i].Method == m {
			return &t.Series[i]
		}
	}
	return nil
}

// Speedups returns, for the given method, baseline_time / method_time at
// every x position.
func (t *Table) Speedups(m cw.Method) []float64 {
	base := t.seriesFor(t.Baseline)
	ser := t.seriesFor(m)
	if base == nil || ser == nil {
		return nil
	}
	out := make([]float64, len(t.Xs))
	for i := range t.Xs {
		out[i] = stats.Speedup(base.Points[i].Median, ser.Points[i].Median)
	}
	return out
}

// GeoMeanSpeedup returns the geometric-mean speedup of a method over the
// baseline across the sweep — the number the paper quotes per figure.
func (t *Table) GeoMeanSpeedup(m cw.Method) float64 {
	return stats.GeoMean(t.Speedups(m))
}

// MaxSpeedup returns the largest per-point speedup of a method over the
// baseline.
func (t *Table) MaxSpeedup(m cw.Method) float64 {
	best := 0.0
	for _, s := range t.Speedups(m) {
		if s > best {
			best = s
		}
	}
	return best
}
