package bench

import (
	"bytes"
	"strings"
	"testing"

	"crcwpram/internal/alg/bfs"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

// TestLocalityModelAcceptance is the sweep's headline gate at the default
// workload size: on RMAT-16 at P=8 the bit-packed pull must model at
// least 8x fewer distinct line touches than the word representation (the
// asymptotic packing factor is 32x; the gate leaves room for the bitmap's
// extra clearing rounds and the shared level stores).
func TestLocalityModelAcceptance(t *testing.T) {
	cfg := DefaultConfig()
	g := graph.RMAT(cfg.LocScale, 8<<cfg.LocScale, 0.57, 0.19, 0.19, cfg.Seed)
	seq := bfs.Sequential(g, 0)
	lm := newLineModel(newBFSModel(g, 0, 8, seq))
	for _, kernel := range locKernels {
		word := lm.Lines(kernel, false)
		bit := lm.Lines(kernel, true)
		if word == 0 || bit == 0 {
			t.Fatalf("%s: degenerate model word=%d bitmap=%d", kernel, word, bit)
		}
		ratio := float64(word) / float64(bit)
		t.Logf("%s: word=%d bitmap=%d ratio=%.1fx", kernel, word, bit, ratio)
		if kernel == "bfs-pull" && ratio < 8 {
			t.Fatalf("bfs-pull: bitmap models only %.1fx fewer line touches, want >= 8x", ratio)
		}
	}
}

// TestLocalityModelDeterministic pins that the model is a pure function of
// its inputs — the property that makes committed line counts diffable.
func TestLocalityModelDeterministic(t *testing.T) {
	g := graph.RMAT(10, 8<<10, 0.57, 0.19, 0.19, 7)
	seq := bfs.Sequential(g, 0)
	lm := newLineModel(newBFSModel(g, 0, 4, seq))
	for _, kernel := range locKernels {
		for _, bitmap := range []bool{false, true} {
			a := lm.Lines(kernel, bitmap)
			b := lm.Lines(kernel, bitmap)
			if a != b {
				t.Fatalf("%s bitmap=%v: model not deterministic (%d vs %d)", kernel, bitmap, a, b)
			}
		}
	}
}

// TestLocalityPushRoundOneWorker pins the line model's replay of the
// kernel's one-worker push level: on a narrow grid every level is below
// bfs.OneWorkerLevel's grain, so at P = 2 and 4 the kernel, its stealing
// off as the locality sweep runs it, relaxes each level on worker 0 alone,
// and each modelled push round must touch exactly the lines it touches on
// one worker. Split across the workers, the levels' neighboring vertices
// would share lines and count them once per worker.
func TestLocalityPushRoundOneWorker(t *testing.T) {
	g := graph.Grid2D(64, 4)
	seq := bfs.Sequential(g, 0)
	one := newLineModel(newBFSModel(g, 0, 1, seq))
	for _, p := range []int{2, 4} {
		lm := newLineModel(newBFSModel(g, 0, p, seq))
		for L := 0; L <= seq.Depth; L++ {
			for _, bitmap := range []bool{false, true} {
				one.lines, lm.lines = 0, 0
				one.pushRound(uint32(L), bitmap)
				lm.pushRound(uint32(L), bitmap)
				if lm.lines != one.lines {
					t.Fatalf("p=%d level %d bitmap=%v: push round touches %d lines, %d on one worker",
						p, L, bitmap, lm.lines, one.lines)
				}
			}
		}
	}
}

// TestLocalitySweep runs the tiny sweep end to end and checks the row
// grid, the JSON conversion and the validator round trip.
func TestLocalitySweep(t *testing.T) {
	cfg := TinyConfig()
	rows, err := Locality(cfg, machine.ExecTeam)
	if err != nil {
		t.Fatal(err)
	}
	want := len(graph.RelabelModes) * len(cfg.LocThreads) * len(locKernels) * len(locReprs)
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		bitmap := r.Repr == "bitmap"
		if bitmap != (r.Lines > 0) || bitmap != (r.LinesWord > 0) {
			t.Fatalf("row %+v: line model must ride on bitmap rows exactly", r)
		}
		relabeled := r.Relabel != graph.RelabelNone
		if relabeled != (r.PermHash != 0) {
			t.Fatalf("row %+v: perm hash must ride on relabeled rows exactly", r)
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, LocalityJSONRows(rows)); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateJSON(&buf)
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if n != want {
		t.Fatalf("validated %d rows, want %d", n, want)
	}
	var tbl strings.Builder
	if err := FormatLocality(&tbl, rows); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"relabel=none", "relabel=degree", "relabel=bfs", "bfs-pull", "bitmap"} {
		if !strings.Contains(tbl.String(), needle) {
			t.Fatalf("table output missing %q:\n%s", needle, tbl.String())
		}
	}
}

// TestValidateJSONLocalityRejects exercises the validator's locality
// branch: each malformed row must fail with a distinctive error.
func TestValidateJSONLocalityRejects(t *testing.T) {
	base := Row{
		Bench: "locality", Kernel: "bfs-pull", Method: "fetch-or", Exec: "team",
		Threads: 2, NsOp: 100, Graph: "rmat8", Repr: "bitmap", Relabel: "none",
		LineTouches: 10, LineTouchesWord: 100,
	}
	cases := []struct {
		name   string
		mutate func(*Row)
		want   string
	}{
		{"bad repr", func(r *Row) { r.Repr = "nibble" }, "repr"},
		{"bad relabel", func(r *Row) { r.Relabel = "hilbert" }, "relabel"},
		{"bitmap without model", func(r *Row) { r.LineTouches = 0 }, "line-touch"},
		{"word with model", func(r *Row) { r.Repr = "word" }, "line touches"},
		{"relabel without hash", func(r *Row) { r.Relabel = "degree" }, "perm_hash"},
		{"hash without relabel", func(r *Row) { r.PermHash = 99 }, "perm_hash"},
		{"missing graph", func(r *Row) { r.Graph = "" }, "graph"},
	}
	for _, tc := range cases {
		row := base
		tc.mutate(&row)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, []Row{row}); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateJSON(&buf); err == nil {
			t.Fatalf("%s: validator accepted malformed row", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// And the well-formed base row must pass.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Row{base}); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateJSON(&buf); err != nil {
		t.Fatalf("well-formed row rejected: %v", err)
	}
}
