package bench

import (
	"bytes"
	"strings"
	"testing"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/kernel"
)

func TestOpCountTableValidatesSectionSix(t *testing.T) {
	const threads = 4
	sweep := []int{100, 1000, 10000}
	rows := OpCountTable(threads, sweep)
	if len(rows) != len(sweep) {
		t.Fatalf("%d rows, want %d", len(rows), len(sweep))
	}
	for _, r := range rows {
		p := uint64(r.PPRAM)
		// Gatekeeper: one RMW per virtual writer, exactly.
		if r.Gate[1] != p {
			t.Fatalf("P_PRAM=%d: gatekeeper RMWs = %d, want %d", r.PPRAM, r.Gate[1], p)
		}
		// CAS-LT: one load per writer, RMWs bounded by the physical
		// concurrency, never by P_PRAM. The machine has exactly P_Phys
		// workers, the caller being worker 0, and each makes at most one
		// RMW: after it, the worker's pre-check sees the stamp.
		if r.CASLT[0] != p {
			t.Fatalf("P_PRAM=%d: caslt loads = %d, want %d", r.PPRAM, r.CASLT[0], p)
		}
		if r.CASLT[1] > threads {
			t.Fatalf("P_PRAM=%d: caslt RMWs = %d, want <= P_Phys = %d", r.PPRAM, r.CASLT[1], threads)
		}
		// Checked gatekeeper: same load/RMW split as CAS-LT in this
		// single-round experiment.
		if r.GateChecked[0] != p {
			t.Fatalf("P_PRAM=%d: gate-checked loads = %d, want %d", r.PPRAM, r.GateChecked[0], p)
		}
		if r.GateChecked[1] > threads {
			t.Fatalf("P_PRAM=%d: gate-checked RMWs = %d, want <= %d", r.PPRAM, r.GateChecked[1], threads)
		}
		// Exactly one winner everywhere.
		if r.CASLT[2] != 1 || r.Gate[2] != 1 || r.GateChecked[2] != 1 {
			t.Fatalf("P_PRAM=%d: wins = %d/%d/%d, want 1 each", r.PPRAM, r.CASLT[2], r.GateChecked[2], r.Gate[2])
		}
	}

	var out bytes.Buffer
	if err := FormatOpCounts(&out, threads, rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"section-6", "P_PRAM", "gatekeeper RMWs"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("formatted op-count table missing %q", want)
		}
	}
}

func TestKernelOpCounts(t *testing.T) {
	rows := KernelOpCounts(kernel.Default, 2, 300, 1200, 7)
	byKey := map[string]KernelOpRow{}
	for _, r := range rows {
		byKey[r.Kernel+"/"+r.Method.String()] = r
	}
	full := 0
	for _, d := range kernel.Default.All() {
		counted := 0
		for _, m := range []cw.Method{cw.CASLT, cw.GatekeeperChecked, cw.Gatekeeper} {
			if d.SupportsMethod(m) {
				counted++
				if _, ok := byKey[d.Name+"/"+m.String()]; !ok {
					t.Fatalf("%s supports %v but has no row", d.Name, m)
				}
			}
		}
		if counted < 3 {
			continue
		}
		full++
		name := d.Name
		caslt := byKey[name+"/caslt"]
		gate := byKey[name+"/gatekeeper"]
		checked := byKey[name+"/gatekeeper-checked"]
		// Same algorithm, same winner structure.
		if caslt.Wins == 0 {
			t.Fatalf("%s: no wins recorded", name)
		}
		if gate.Wins != caslt.Wins || checked.Wins != caslt.Wins {
			t.Fatalf("%s: wins differ across methods (%d/%d/%d)", name, caslt.Wins, checked.Wins, gate.Wins)
		}
		// The plain gatekeeper never uses loads and pays an RMW per
		// attempt; the pre-checked methods can only have fewer RMWs.
		if gate.Loads != 0 {
			t.Fatalf("%s: plain gatekeeper recorded %d loads", name, gate.Loads)
		}
		if caslt.RMWs > gate.RMWs || checked.RMWs > gate.RMWs {
			t.Fatalf("%s: pre-checked methods exceeded plain gatekeeper RMWs (%d/%d vs %d)",
				name, caslt.RMWs, checked.RMWs, gate.RMWs)
		}
	}
	if len(rows) != len(byKey) {
		t.Fatalf("%d rows for %d kernel/method pairs", len(rows), len(byKey))
	}
	// bfs, cc, maxfind and mis support all three counted methods.
	if full < 4 {
		t.Fatalf("%d kernels with all three counted methods, want at least 4", full)
	}

	var out bytes.Buffer
	if err := FormatKernelOps(&out, 300, 1200, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kernel-ops") || !strings.Contains(out.String(), "atomic RMWs") {
		t.Fatalf("kernel-ops table malformed:\n%s", out.String())
	}
}

func TestSimulationTable(t *testing.T) {
	rows := SimulationTable(2, 1, []int{8, 32}, 5)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Direct <= 0 || r.AllPairs <= 0 || r.Tournament <= 0 {
			t.Fatalf("non-positive timing in %+v", r)
		}
	}
	var out bytes.Buffer
	if err := FormatSimulations(&out, rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"simulations", "all-pairs", "tournament", "log P"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("simulation table missing %q:\n%s", want, out.String())
		}
	}
}
