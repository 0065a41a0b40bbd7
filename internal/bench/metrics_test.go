package bench

import (
	"bytes"
	"strings"
	"testing"

	"crcwpram/internal/core/machine"
	"crcwpram/internal/kernel"
)

// TestContentionSweep runs the miniature live-contention sweep end to end:
// row counts, per-row invariants, the CAS-LT bound check, formatting, and
// the JSON round trip through ValidateJSON.
func TestContentionSweep(t *testing.T) {
	const (
		threads  = 2
		vertices = 300
		edges    = 1200
		seed     = 7
	)
	execs := []machine.Exec{machine.ExecTeam, machine.ExecTrace}
	rows, err := Contention(kernel.Default, threads, vertices, edges, seed, execs)
	if err != nil {
		t.Fatal(err)
	}
	// The expected row count is derived from the registry the sweep walks:
	// per timed exec, one row per guarded (kernel, contention method) pair
	// plus one per EREW control; plus the stealing-scheduler pass. The trace
	// entry must be skipped, not reported.
	perExec := 0
	for _, d := range kernel.All() {
		switch d.Contention {
		case kernel.ContentionNone, kernel.ContentionCAS:
		case kernel.ContentionEREW:
			perExec++
		default:
			perExec += len(contentionRunMethods(d))
		}
	}
	timed := len(machine.Execs)
	want := timed*perExec + timed
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	stealingRows := 0
	for _, r := range rows {
		if r.Policy == "stealing" {
			stealingRows++
			if r.Kernel != "cc-randmate" {
				t.Fatalf("stealing metrics row on kernel %q, want cc-randmate", r.Kernel)
			}
			if r.Snap.ChunksLocal == 0 {
				t.Fatalf("stealing metrics row without deque claims: %+v", r.Snap)
			}
		} else if r.Snap.ChunksLocal != 0 || r.Snap.Steals != 0 || r.Snap.StealFails != 0 {
			t.Fatalf("%s/%s/%s: default-policy row carries steal counters: %+v",
				r.Kernel, r.Method, r.Exec, r.Snap)
		}
	}
	if stealingRows != timed {
		t.Fatalf("got %d stealing metrics rows, want one per timed exec", stealingRows)
	}
	for _, r := range rows {
		if r.Exec == machine.ExecTrace {
			t.Fatalf("trace backend leaked a contention row: %+v", r)
		}
		s := r.Snap
		if s.CASAttempts != s.CASWins+s.CASLosses {
			t.Fatalf("%s/%s/%s: attempts %d != wins %d + losses %d",
				r.Kernel, r.Method, r.Exec, s.CASAttempts, s.CASWins, s.CASLosses)
		}
		if r.Kernel == "listrank" {
			if s.CASAttempts != 0 || s.PrecheckSkips != 0 || s.MaxCellClaims != 0 {
				t.Fatalf("listrank (EREW control) recorded CW activity: %+v", s)
			}
		} else if s.CASWins == 0 {
			t.Fatalf("%s/%s/%s: no winning attempts recorded", r.Kernel, r.Method, r.Exec)
		}
		if s.Rounds == 0 || s.BusyNs <= 0 || s.RoundNs <= 0 {
			t.Fatalf("%s/%s/%s: missing rounds/time split: %+v", r.Kernel, r.Method, r.Exec, s)
		}
	}

	var out strings.Builder
	if err := FormatContention(&out, threads, vertices, edges, rows); err != nil {
		t.Fatal(err)
	}
	for _, wantStr := range []string{"metrics", "max/cell/round", "maxfind", "listrank", "NOT timings"} {
		if !strings.Contains(out.String(), wantStr) {
			t.Fatalf("format output missing %q:\n%s", wantStr, out.String())
		}
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, ContentionJSONRows(rows, threads)); err != nil {
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

// TestValidateJSONMetricsBranch pins the metrics-row failure classes the
// -validatejson CI gate relies on, plus a representative good row of each
// flavour (guarded kernel, EREW control).
func TestValidateJSONMetricsBranch(t *testing.T) {
	bad := map[string]string{
		"trace exec": `[{"bench":"metrics","exec":"trace","threads":2,"kernel":"bfs",
			"cas_attempts":5,"cas_wins":5,"busy_ns":1,"round_ns":1,"rounds":3}]`,
		"carries ns_op": `[{"bench":"metrics","exec":"team","threads":2,"kernel":"bfs","ns_op":9,
			"cas_attempts":5,"cas_wins":5,"busy_ns":1,"round_ns":1,"rounds":3}]`,
		"no kernel": `[{"bench":"metrics","exec":"team","threads":2,
			"cas_attempts":5,"cas_wins":5,"busy_ns":1,"round_ns":1,"rounds":3}]`,
		"attempts mismatch": `[{"bench":"metrics","exec":"team","threads":2,"kernel":"bfs",
			"cas_attempts":5,"cas_wins":3,"cas_losses":1,"busy_ns":1,"round_ns":1,"rounds":3}]`,
		"listrank with counters": `[{"bench":"metrics","exec":"team","threads":2,"kernel":"listrank",
			"cas_attempts":1,"cas_wins":1,"busy_ns":1,"round_ns":1,"rounds":3}]`,
		"guarded without attempts": `[{"bench":"metrics","exec":"team","threads":2,"kernel":"bfs",
			"busy_ns":1,"round_ns":1,"rounds":3}]`,
		"no time split": `[{"bench":"metrics","exec":"team","threads":2,"kernel":"bfs",
			"cas_attempts":5,"cas_wins":5,"rounds":3}]`,
		"no rounds": `[{"bench":"metrics","exec":"team","threads":2,"kernel":"bfs",
			"cas_attempts":5,"cas_wins":5,"busy_ns":1,"round_ns":1}]`,
	}
	for name, text := range bad {
		if _, err := ValidateJSON(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
	good := `[
		{"bench":"metrics","exec":"team","threads":2,"kernel":"cc","method":"caslt",
		 "cas_attempts":7,"cas_wins":5,"cas_losses":2,"precheck_skips":40,
		 "max_cell_claims":2,"busy_ns":100,"barrier_wait_ns":20,"round_ns":120,"rounds":6},
		{"bench":"metrics","exec":"team","threads":2,"kernel":"listrank",
		 "busy_ns":100,"round_ns":120,"rounds":9}
	]`
	if n, err := ValidateJSON(strings.NewReader(good)); err != nil || n != 2 {
		t.Fatalf("good rows rejected: n=%d err=%v", n, err)
	}
}
