package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

// The committed edge-balance, stealing and locality baselines carry
// deterministic model fields next to their wall times. The test below
// rebuilds those fields for every committed row from the row's own
// settings and the sweep defaults, so a change to a model, to a kernel
// rule a model replays, or to a sweep's workloads fails here until the
// baseline is regenerated with its own command.

// modelFields formats the deterministic fields of a row: the BFS depth,
// the work model, the line-touch model and the relabeling fingerprint.
func modelFields(r Row) string {
	return fmt.Sprintf("depth=%d work_total=%d work_crit=%d work_ideal=%d imbalance=%v line_touches=%d line_touches_word=%d perm_hash=%#x",
		r.Depth, r.WorkTotal, r.WorkCrit, r.WorkIdeal, r.Imbalance, r.LineTouches, r.LineTouchesWord, r.PermHash)
}

// readBaseline reads a committed BENCH_*.json file at the repository root.
func readBaseline(t *testing.T, name string) []Row {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rows) == 0 {
		t.Fatalf("%s: no rows", name)
	}
	return rows
}

// modelCache builds each (graph, relabeling, worker count) replay once.
type modelCache struct {
	inputs map[string]bfsInput
	models map[string]cachedModel
}

// cachedModel is one replay and the fingerprint of its relabeling.
type cachedModel struct {
	b    *bfsModel
	hash uint64
}

func newModelCache(inputs []bfsInput) *modelCache {
	c := &modelCache{inputs: map[string]bfsInput{}, models: map[string]cachedModel{}}
	for _, in := range inputs {
		c.inputs[in.name] = in
	}
	return c
}

// model returns the replay of the named graph under mode at p workers, the
// traversal rooted at the image of the input's source, and the
// permutation's fingerprint (zero for the identity).
func (c *modelCache) model(t *testing.T, name string, mode graph.RelabelMode, p int) (*bfsModel, uint64) {
	t.Helper()
	key := fmt.Sprintf("%s/%s/p=%d", name, mode, p)
	if m, ok := c.models[key]; ok {
		return m.b, m.hash
	}
	in, ok := c.inputs[name]
	if !ok {
		t.Fatalf("graph %q is not a workload of the default sweep configuration", name)
	}
	g, src, hash := in.g, in.source, uint64(0)
	if mode != graph.RelabelNone {
		rl := graph.Relabel(in.g, mode)
		g, src, hash = rl.G, rl.Perm[in.source], graph.PermHash(rl.Perm)
	}
	m := cachedModel{newBFSModel(g, src, p, bfs.Sequential(g, src)), hash}
	c.models[key] = m
	return m.b, m.hash
}

// TestCommittedModelFieldsReproduce rebuilds the deterministic fields of
// every row of BENCH_edgebalance.json, BENCH_stealing.json and
// BENCH_locality.json and demands they equal the committed ones exactly.
func TestCommittedModelFieldsReproduce(t *testing.T) {
	cfg := DefaultConfig()
	check := func(file string, i int, got, want Row) {
		t.Helper()
		if g, w := modelFields(got), modelFields(want); g != w {
			t.Errorf("%s row %d (%s %s threads=%d balance=%q policy=%q repr=%q relabel=%q):\n committed %s\n rebuilt   %s",
				file, i, want.Graph, want.Kernel, want.Threads, want.Balance, want.Policy, want.Repr, want.Relabel, w, g)
		}
	}
	parse := func(file string, i int, axis string, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s row %d: bad %s", file, i, axis)
		}
	}

	const eb = "BENCH_edgebalance.json"
	ebModels := newModelCache(edgeBalanceInputs(cfg))
	for i, r := range readBaseline(t, eb) {
		bal, ok := graph.ParseBalance(r.Balance)
		parse(eb, i, "balance", ok)
		b, _ := ebModels.model(t, r.Graph, graph.RelabelNone, r.Threads)
		got := EdgeBalanceJSONRows([]EdgeBalanceRow{{
			Graph: r.Graph, Kernel: r.Kernel, Balance: bal, Exec: r.Exec, Threads: r.Threads,
			Model: b.For(r.Kernel, bal),
		}})[0]
		check(eb, i, got, r)
	}

	// The stealing sweep's machines keep the default chunk.
	const st = "BENCH_stealing.json"
	stModels := newModelCache(stealingInputs(cfg))
	for i, r := range readBaseline(t, st) {
		pol, ok := sched.ParsePolicy(r.Policy)
		parse(st, i, "policy", ok)
		b, _ := stModels.model(t, r.Graph, graph.RelabelNone, r.Threads)
		got := StealingJSONRows([]StealingRow{{
			Graph: r.Graph, Kernel: r.Kernel, Policy: pol, Exec: r.Exec, Threads: r.Threads,
			Model: b.ForSched(r.Kernel, pol, sched.DefaultChunk),
		}})[0]
		check(st, i, got, r)
	}

	const loc = "BENCH_locality.json"
	locModels := newModelCache([]bfsInput{localityInput(cfg)})
	for i, r := range readBaseline(t, loc) {
		mode, ok := graph.ParseRelabel(r.Relabel)
		parse(loc, i, "relabel", ok)
		b, hash := locModels.model(t, r.Graph, mode, r.Threads)
		row := LocalityRow{
			Graph: r.Graph, Kernel: r.Kernel, Repr: r.Repr, Relabel: mode, Exec: r.Exec, Threads: r.Threads,
			Depth: b.depth, PermHash: hash,
		}
		if r.Repr == "bitmap" {
			lm := newLineModel(b)
			row.Lines, row.LinesWord = lm.Lines(r.Kernel, true), lm.Lines(r.Kernel, false)
		}
		check(loc, i, LocalityJSONRows([]LocalityRow{row})[0], r)
	}
}
