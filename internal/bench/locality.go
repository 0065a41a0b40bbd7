package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/bench/sweep"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"
)

// The locality sweep is the memory-layout experiment behind -locality: the
// two bottom-up-capable CAS-LT BFS formulations (pure pull and the
// direction-optimizing hybrid) on an RMAT power-law graph, across the
// representation axis (word-per-cell membership arrays versus the
// bit-packed BitArray frontiers), the CSR relabeling axis (-relabel: none,
// degree-sorted, BFS order) and a worker-count sweep. Each cell reports
// the median wall time and, for the bitmap cells, the deterministic
// cache-line-touch model of both representations (localitymodel.go): on a
// shared host the wall clock cannot separate a cache effect from
// scheduling noise, while the modelled working set exposes exactly what
// the 512-cells-per-line packing buys and what its extra clearing and
// conversion rounds cost.

// locKernels are the swept BFS formulations: the two whose rounds probe
// level membership — the access pattern the bitmap representation packs.
var locKernels = []string{"bfs-pull", "bfs-hybrid"}

// locReprs is the representation axis.
var locReprs = []string{"word", "bitmap"}

// LocalityRow is one measured cell of the sweep.
type LocalityRow struct {
	Graph   string
	Kernel  string
	Repr    string // "word" | "bitmap"
	Relabel graph.RelabelMode
	Exec    string
	Threads int
	NsOp    float64
	Depth   int
	// Lines / LinesWord carry the line-touch model on bitmap rows only:
	// the bitmap run's modelled distinct line touches and the word
	// baseline of the same (kernel, graph, P) cell, so the ratio lives in
	// one row. Word rows are pure timing rows (the model's word number is
	// on the bitmap row they are compared against).
	Lines     uint64
	LinesWord uint64
	// PermHash fingerprints the applied permutation (zero for none):
	// committed baselines then pin not just that a relabeled run was
	// measured but which ordering it ran under.
	PermHash uint64
}

// localityInput builds the locality sweep's workload, traversed from
// vertex 0 before relabeling.
func localityInput(cfg Config) bfsInput {
	return bfsInput{fmt.Sprintf("rmat%d", cfg.LocScale),
		graph.RMAT(cfg.LocScale, 8<<cfg.LocScale, 0.57, 0.19, 0.19, cfg.Seed), 0}
}

// Locality runs the sweep: for each relabel mode × worker count × kernel ×
// representation, the median wall time over cfg.Reps runs (validated once
// per cell) plus, on bitmap cells, the line-touch model pair. The kernels'
// stealing is off, so the hybrid's timed push levels run the block split
// the model replays. The workload size comes from cfg.LocScale, the worker
// counts from cfg.LocThreads, the relabel axis from cfg.Relabels.
func Locality(cfg Config, exec machine.Exec) ([]LocalityRow, error) {
	cfg = cfg.withDefaults()
	in := localityInput(cfg)
	run := cfg.newRunner()
	defer run.Close()
	var rows []LocalityRow
	for _, mode := range cfg.Relabels {
		rl := graph.Relabel(in.g, mode)
		var hash uint64
		if mode != graph.RelabelNone {
			hash = graph.PermHash(rl.Perm)
		}
		// The traversal is rooted at the image of the source, so every
		// mode runs the same BFS up to vertex names.
		src := rl.Perm[in.source]
		seq := bfs.Sequential(rl.G, src)
		w := &kernel.Workload{Graph: rl.G, Source: src}
		for _, p := range cfg.LocThreads {
			lm := newLineModel(newBFSModel(rl.G, src, p, seq))
			m := run.Machine(sweep.MachineKey{Threads: p, Policy: cfg.Policy})
			for _, kname := range locKernels {
				d, ok := kernel.Lookup(kname)
				if !ok {
					return nil, fmt.Errorf("locality: unregistered kernel %s", kname)
				}
				inst := run.Instance(d, m, w)
				for _, repr := range locReprs {
					cell, err := run.Timed(inst, kernel.Settings{
						Exec: exec, Method: cw.CASLT, Bitmap: repr == "bitmap", Steal: kernel.StealOff,
					})
					if err != nil {
						return nil, fmt.Errorf("locality %s %s %s relabel=%s p=%d: %w",
							in.name, kname, repr, mode, p, err)
					}
					row := LocalityRow{
						Graph:    in.name,
						Kernel:   kname,
						Repr:     repr,
						Relabel:  mode,
						Exec:     exec.String(),
						Threads:  p,
						NsOp:     float64(cell.Median.Nanoseconds()),
						Depth:    seq.Depth,
						PermHash: hash,
					}
					if repr == "bitmap" {
						row.Lines = lm.Lines(kname, true)
						row.LinesWord = lm.Lines(kname, false)
					}
					rows = append(rows, row)
					cfg.logf("locality %s kernel=%s repr=%s relabel=%s p=%d median=%v lines=%d\n",
						in.name, kname, repr, mode, p, cell.Median, row.Lines)
				}
			}
		}
	}
	return rows, nil
}

// FormatLocality renders the sweep as one table per relabel mode: a
// (kernel, repr, P) line with the wall median and, on bitmap lines, the
// modelled line-touch pair and their ratio.
func FormatLocality(w io.Writer, rows []LocalityRow) error {
	var b strings.Builder
	ms := func(ns float64) string {
		return strconv.FormatFloat(ns/1e6, 'f', 3, 64)
	}
	var modes []string
	for _, r := range rows {
		s := r.Relabel.String()
		if len(modes) == 0 || modes[len(modes)-1] != s {
			modes = append(modes, s)
		}
	}
	for mi, mode := range modes {
		if mi > 0 {
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "== locality: relabel=%s ==\n", mode)
		table := [][]string{{"kernel", "repr", "p", "wall(ms)", "lines", "lines(word)", "ratio"}}
		for _, r := range rows {
			if r.Relabel.String() != mode {
				continue
			}
			lines, word, ratio := "-", "-", "-"
			if r.Repr == "bitmap" {
				lines = strconv.FormatUint(r.Lines, 10)
				word = strconv.FormatUint(r.LinesWord, 10)
				if r.Lines > 0 {
					ratio = strconv.FormatFloat(float64(r.LinesWord)/float64(r.Lines), 'f', 1, 64)
				}
			}
			table = append(table, []string{
				r.Kernel,
				r.Repr,
				strconv.Itoa(r.Threads),
				ms(r.NsOp),
				lines,
				word,
				ratio,
			})
		}
		writeAligned(&b, table)
	}
	b.WriteString("\nlines is the deterministic cache-line-touch model of the membership\n" +
		"state (distinct 64-byte lines per worker per round, summed; bitmap\n" +
		"rows carry their own number and the word baseline of the same cell),\n" +
		"not wall time: on a shared host only the model can attribute a delta\n" +
		"to memory layout.\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// LocalityJSONRows converts the sweep to the machine-readable rows. The
// method field names the membership-write primitive the representation
// uses: round-stamped CAS-LT words or fetch-OR bits.
func LocalityJSONRows(rows []LocalityRow) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		method := "caslt"
		if r.Repr == "bitmap" {
			method = "fetch-or"
		}
		out = append(out, Row{
			Bench:           "locality",
			Kernel:          r.Kernel,
			Method:          method,
			Exec:            r.Exec,
			Threads:         r.Threads,
			NsOp:            r.NsOp,
			Graph:           r.Graph,
			Depth:           r.Depth,
			Repr:            r.Repr,
			Relabel:         r.Relabel.String(),
			LineTouches:     r.Lines,
			LineTouchesWord: r.LinesWord,
			PermHash:        r.PermHash,
		})
	}
	return out
}
