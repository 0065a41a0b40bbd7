package bench

import (
	"bytes"
	"strings"
	"testing"

	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

// TestStealingModelAcceptance pins the sweep's headline claim at the real
// sweep scale: on the default RMAT workload (scale 16, density 4) at P=8,
// the modelled critical path of frontier BFS under the stealing policy
// beats the dynamic policy by at least 1.3x — fine chunks and cheap deque
// claims versus DefaultChunk-sized grabs on a contended cursor. The model
// is deterministic, so this is a hard regression gate on both the chunk
// geometry (sched.StealChunk) and the cost constants.
func TestStealingModelAcceptance(t *testing.T) {
	cfg := DefaultConfig()
	g := graph.RMAT(cfg.StealScale, 4<<cfg.StealScale, 0.57, 0.19, 0.19, cfg.Seed)
	seq := bfs.Sequential(g, 0)
	b := newBFSModel(g, 0, 8, seq)
	dyn := b.ForSched("bfs-frontier", sched.Dynamic, 0)
	st := b.ForSched("bfs-frontier", sched.Stealing, 0)
	if st.Crit == 0 || dyn.Crit == 0 {
		t.Fatalf("degenerate model: dyn=%+v steal=%+v", dyn, st)
	}
	ratio := float64(dyn.Crit) / float64(st.Crit)
	t.Logf("rmat%d p=8 frontier: dynamic crit=%d stealing crit=%d ideal=%d ratio=%.3f",
		cfg.StealScale, dyn.Crit, st.Crit, st.Ideal, ratio)
	if ratio < 1.3 {
		t.Fatalf("stealing/dynamic critical-path ratio %.3f < 1.3 on rmat%d at p=8",
			ratio, cfg.StealScale)
	}

	// The negative control: on the degree-uniform graph block is already
	// balanced, and stealing must not burden it — the kernels keep block
	// (no auto-steal) there, which DegreeSkewed decides.
	u := graph.ConnectedRandom(1<<cfg.StealScale, 4<<cfg.StealScale, cfg.Seed)
	if graph.DegreeSkewed(u) {
		t.Fatal("uniform graph classified as skewed: kernels would auto-steal a regular sweep")
	}
	if !graph.DegreeSkewed(g) {
		t.Fatal("RMAT graph classified as uniform: kernels would not auto-steal the hubs")
	}
}

// TestStealingModelInvariants checks the per-policy round scheduler on a
// hand-made cost vector: exact coverage is implied by Crit >= Ideal >=
// max cost, block with uniform costs is perfect, and a single huge index
// pins block's critical path while stealing's stays near ideal.
func TestStealingModelInvariants(t *testing.T) {
	const p = 4
	uniform := make([]uint64, 1024)
	for i := range uniform {
		uniform[i] = 3
	}
	if got, want := policyCrit(uniform, sched.Block, p, 0), uint64(3*1024/p); got != want {
		t.Fatalf("block crit on uniform costs = %d, want %d", got, want)
	}
	skewed := make([]uint64, 1024)
	for i := range skewed {
		skewed[i] = 1
	}
	skewed[10] = 100000
	bl := policyCrit(skewed, sched.Block, p, 0)
	st := policyCrit(skewed, sched.Stealing, p, 0)
	if bl < 100000+uint64(len(skewed)/p-1) {
		t.Fatalf("block crit %d does not contain the straggler's whole share", bl)
	}
	if st < 100000 {
		t.Fatalf("stealing crit %d below the largest single cost", st)
	}
	if st >= bl {
		t.Fatalf("stealing crit %d not below block crit %d on a one-hub round", st, bl)
	}
	for _, pol := range sched.Policies {
		if c := policyCrit(skewed, pol, p, 0); c < 100000 {
			t.Fatalf("%s crit %d below the unsplittable largest cost", pol, c)
		}
	}
	if policyCrit(nil, sched.Dynamic, p, 0) != 0 {
		t.Fatal("empty round has nonzero crit")
	}
}

// TestStealingSweep runs the tiny sweep end to end and checks the row
// grid, the counter discipline (steal counters nonzero exactly on
// stealing-policy cells), the JSON round-trip through ValidateJSON, and
// the rendered table.
func TestStealingSweep(t *testing.T) {
	cfg := tinyConfig()
	cfg.StealScale = 7
	cfg.StealThreads = []int{2, 4}
	rows, err := Stealing(cfg, machine.ExecTeam)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * len(cfg.StealThreads) * len(sched.Policies) * len(stealKernels)
	if len(rows) != wantRows {
		t.Fatalf("sweep produced %d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if r.Policy == sched.Stealing {
			if r.ChunksLocal == 0 {
				t.Fatalf("%s %s p=%d: stealing cell claimed no local chunks", r.Graph, r.Kernel, r.Threads)
			}
		} else if r.ChunksLocal != 0 || r.Steals != 0 || r.StealFails != 0 {
			t.Fatalf("%s %s %s p=%d: non-stealing cell carries steal counters", r.Graph, r.Kernel, r.Policy, r.Threads)
		}
		if r.Model.Ideal == 0 || r.Model.Crit < r.Model.Ideal {
			t.Fatalf("%s %s %s p=%d: inconsistent model %+v", r.Graph, r.Kernel, r.Policy, r.Threads, r.Model)
		}
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, StealingJSONRows(rows)); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateJSON(&buf)
	if err != nil {
		t.Fatalf("sweep JSON does not validate: %v", err)
	}
	if n != wantRows {
		t.Fatalf("validated %d rows, want %d", n, wantRows)
	}

	var tbl strings.Builder
	if err := FormatStealing(&tbl, rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rmat7", "uniform7", "stealing", "guided", "crit"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("rendered table missing %q:\n%s", want, tbl.String())
		}
	}
}

// TestValidateJSONStealingBranch exercises the stealing-specific rejects.
func TestValidateJSONStealingBranch(t *testing.T) {
	base := Row{Bench: "stealing", Kernel: "bfs-frontier", Method: "caslt",
		Exec: "team", Threads: 4, NsOp: 100, Graph: "rmat7", Policy: "stealing",
		WorkTotal: 1000, WorkCrit: 400, WorkIdeal: 300, Imbalance: 1.33,
		ChunksLocal: 10, Steals: 2}
	check := func(mutate func(*Row), wantErr string) {
		t.Helper()
		r := base
		mutate(&r)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, []Row{r}); err != nil {
			t.Fatal(err)
		}
		_, err := ValidateJSON(&buf)
		if wantErr == "" {
			if err != nil {
				t.Fatalf("unexpected reject: %v", err)
			}
			return
		}
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("got %v, want error containing %q", err, wantErr)
		}
	}
	check(func(*Row) {}, "")
	check(func(r *Row) { r.Policy = "lottery" }, "unknown policy")
	check(func(r *Row) { r.Policy = "" }, "missing graph/policy")
	check(func(r *Row) { r.ChunksLocal = 0 }, "no local chunks")
	check(func(r *Row) { r.Policy = "dynamic" }, "carries steal counters")
	check(func(r *Row) { r.Policy = "dynamic"; r.ChunksLocal = 0; r.Steals = 0 }, "")
	check(func(r *Row) { r.WorkCrit = 200 }, "inconsistent scheduling model")
	check(func(r *Row) { r.Imbalance = 0.8 }, "imbalance")
}
