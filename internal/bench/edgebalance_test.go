package bench

import (
	"bytes"
	"strings"
	"testing"

	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

// ebTestConfig is a miniature edge-balance sweep configuration.
func ebTestConfig() Config {
	cfg := tinyConfig()
	cfg.EBScale = 6
	cfg.EBStar = 64
	return cfg
}

func modelFor(t *testing.T, g *graph.Graph, source uint32, p int) *bfsModel {
	t.Helper()
	return newBFSModel(g, source, p, bfs.Sequential(g, source))
}

// TestWorkModelInvariants pins the aggregate ordering every replay must
// satisfy: Total >= Crit >= Ideal >= 1, so Imbalance >= 1.
func TestWorkModelInvariants(t *testing.T) {
	graphs := map[string]struct {
		g   *graph.Graph
		src uint32
	}{
		"rmat": {graph.RMAT(7, 1000, 0.57, 0.19, 0.19, 5), 0},
		"star": {graph.Star(100), 1},
		"grid": {graph.Grid2D(8, 9), 0},
	}
	for name, tc := range graphs {
		for _, p := range []int{1, 2, 8} {
			b := modelFor(t, tc.g, tc.src, p)
			for _, kernel := range ebKernels {
				for _, bal := range graph.Balances {
					m := b.For(kernel, bal)
					if m.Total < m.Crit || m.Crit < m.Ideal || m.Ideal == 0 {
						t.Fatalf("%s %s %s p=%d: total=%d crit=%d ideal=%d",
							name, kernel, bal, p, m.Total, m.Crit, m.Ideal)
					}
					if m.Imbalance() < 1 {
						t.Fatalf("%s %s %s p=%d: imbalance %v < 1", name, kernel, bal, p, m.Imbalance())
					}
					if m.Depth != bfs.Sequential(tc.g, tc.src).Depth {
						t.Fatalf("%s %s %s: depth %d", name, kernel, bal, m.Depth)
					}
				}
			}
		}
	}
}

// TestWorkModelFrontierTotal cross-checks the frontier replay's Total
// against the closed form: every reached vertex is touched once and relaxes
// its whole adjacency list, in any balance.
func TestWorkModelFrontierTotal(t *testing.T) {
	g := graph.RMAT(7, 1000, 0.57, 0.19, 0.19, 5)
	seq := bfs.Sequential(g, 0)
	var want uint64
	for v := 0; v < g.NumVertices(); v++ {
		if seq.Level[v] != bfs.Unreached {
			want += 1 + uint64(g.Degree(uint32(v)))
		}
	}
	b := newBFSModel(g, 0, 4, seq)
	for _, bal := range graph.Balances {
		if got := b.For("bfs-frontier", bal).Total; got != want {
			t.Fatalf("%s frontier total %d, want %d", bal, got, want)
		}
	}
	// P=1: the critical path is the total.
	b1 := newBFSModel(g, 0, 1, seq)
	if m := b1.For("bfs-frontier", graph.BalanceVertex); m.Crit != m.Total {
		t.Fatalf("p=1 crit %d != total %d", m.Crit, m.Total)
	}
}

// TestWorkModelEdgeBeatsVertexOnSkew is the sweep's thesis at model level:
// on a skewed-degree graph the push kernels' critical path shrinks under
// edge balancing, and the hybrid does less total work than the pure push
// frontier (the point of direction optimization).
func TestWorkModelEdgeBeatsVertexOnSkew(t *testing.T) {
	g := graph.RMAT(12, 8<<12, 0.57, 0.19, 0.19, 42)
	b := modelFor(t, g, 0, 8)
	for _, kernel := range []string{"bfs", "bfs-frontier"} {
		v := b.For(kernel, graph.BalanceVertex)
		e := b.For(kernel, graph.BalanceEdge)
		if e.Crit >= v.Crit {
			t.Errorf("%s: edge crit %d not below vertex crit %d", kernel, e.Crit, v.Crit)
		}
	}
	for _, bal := range graph.Balances {
		f := b.For("bfs-frontier", bal)
		h := b.For("bfs-hybrid", bal)
		if h.Total >= f.Total {
			t.Errorf("%s: hybrid total %d not below frontier total %d", bal, h.Total, f.Total)
		}
	}
	// Star from a leaf: the level-1 frontier is one hub, which no frontier
	// partitioning can split — but the hybrid's pull levels can.
	star := graph.Star(1 << 10)
	bs := modelFor(t, star, 1, 8)
	f := bs.For("bfs-frontier", graph.BalanceVertex)
	h := bs.For("bfs-hybrid", graph.BalanceVertex)
	if h.Crit >= f.Crit {
		t.Errorf("star: hybrid crit %d not below frontier crit %d", h.Crit, f.Crit)
	}
}

// TestWorkModelHybridReplaysDirections pins the replayed direction schedule
// against the real kernel on the star: push the leaf's level, then pull.
func TestWorkModelHybridReplaysDirections(t *testing.T) {
	// Same bookkeeping the model and kernel share.
	n, src := uint64(1<<10), uint32(1)
	g := graph.Star(int(n))
	mf := uint64(g.Degree(src))
	mu := uint64(g.NumArcs()) - mf
	if bfs.NextDirection(false, mf, mu, 1, n) {
		t.Fatal("level 0 (one leaf) chose pull")
	}
	hub := uint64(g.Degree(0))
	if !bfs.NextDirection(false, hub, mu-hub, 1, n) {
		t.Fatal("level 1 (the hub) did not choose pull")
	}
}

// TestEdgeBalanceSweep runs the miniature sweep end to end: row counts,
// validation, formatting, and the JSON round trip through ValidateJSON.
func TestEdgeBalanceSweep(t *testing.T) {
	infos, rows, err := EdgeBalance(ebTestConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("got %d workloads, want 2", len(infos))
	}
	want := 2 * len(graph.Balances) * len(machine.Execs) * len(ebKernels)
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, info := range infos {
		if info.Stats.MaxDegree == 0 || info.Stats.Skew < 1 {
			t.Fatalf("%s: degenerate stats %+v", info.Name, info.Stats)
		}
	}

	var out strings.Builder
	if err := FormatEdgeBalance(&out, infos, rows); err != nil {
		t.Fatal(err)
	}
	for _, wantStr := range []string{"edgebalance", "bfs-hybrid", "imbal", "skew", "star64", "rmat6"} {
		if !strings.Contains(out.String(), wantStr) {
			t.Fatalf("format output missing %q:\n%s", wantStr, out.String())
		}
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, EdgeBalanceJSONRows(rows)); err != nil {
		t.Fatal(err)
	}
	nrows, err := ValidateJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nrows != want {
		t.Fatalf("ValidateJSON counted %d rows, want %d", nrows, want)
	}
}

// TestEdgeBalanceRespectsExecFilter checks the exec subset parameter.
func TestEdgeBalanceRespectsExecFilter(t *testing.T) {
	_, rows, err := EdgeBalance(ebTestConfig(), []machine.Exec{machine.ExecTeam})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Exec != "team" {
			t.Fatalf("exec filter leaked row %+v", r)
		}
	}
}

// TestValidateJSONRejectsMalformed pins every failure class CI relies on.
func TestValidateJSONRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       "bogus",
		"empty":          "[]",
		"trailing":       `[{"bench":"b","exec":"team","threads":1,"ns_op":1}] 7`,
		"no bench":       `[{"exec":"team","threads":1,"ns_op":1}]`,
		"bad exec":       `[{"bench":"b","exec":"omp","threads":1,"ns_op":1}]`,
		"zero threads":   `[{"bench":"b","exec":"team","ns_op":1}]`,
		"zero ns":        `[{"bench":"b","exec":"team","threads":1}]`,
		"eb no graph":    `[{"bench":"edgebalance","exec":"team","threads":1,"ns_op":1}]`,
		"eb model order": `[{"bench":"edgebalance","exec":"team","threads":1,"ns_op":1,"graph":"g","balance":"edge","work_total":1,"work_crit":2,"work_ideal":3,"imbalance":1}]`,
	}
	for name, text := range cases {
		if _, err := ValidateJSON(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
	good := `[{"bench":"edgebalance","exec":"team","threads":2,"ns_op":5,` +
		`"graph":"g","balance":"vertex","work_total":30,"work_crit":20,"work_ideal":10,"imbalance":2}]`
	if n, err := ValidateJSON(strings.NewReader(good)); err != nil || n != 1 {
		t.Fatalf("good row rejected: n=%d err=%v", n, err)
	}
}
