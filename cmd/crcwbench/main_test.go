package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crcwpram/internal/race"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// capture redirects the process stdout around f. The CLI writes through
// os.Stdout directly, so tests swap the file descriptor.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string, 1)
	go func() {
		var sb strings.Builder
		b := make([]byte, 64*1024)
		for {
			n, err := r.Read(b)
			sb.Write(b[:n])
			if err != nil {
				break
			}
		}
		outCh <- sb.String()
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-outCh, runErr
}

func TestRunSingleFigureTiny(t *testing.T) {
	if race.Enabled {
		t.Skip("figure 5's paper method set includes the intentionally racy naive variant")
	}
	out, err := capture(t, func() error { return run([]string{"-tiny", "-figure", "5"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig5", "naive", "gatekeeper", "caslt", "geomean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fig6") {
		t.Fatal("-figure 5 also ran figure 6")
	}
}

func TestRunAllFiguresTiny(t *testing.T) {
	args := []string{"-tiny", "-reps", "1"}
	if race.Enabled {
		args = append(args, "-methods", "gatekeeper,caslt")
	}
	out, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"} {
		if !strings.Contains(out, fig) {
			t.Fatalf("output missing %s", fig)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	_, err := capture(t, func() error {
		return run([]string{"-tiny", "-figure", "10", "-csv", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.HasPrefix(text, "figure,") || !strings.Contains(text, "fig10") {
		t.Fatalf("csv content wrong:\n%s", text)
	}
	if strings.Contains(text, "naive") {
		t.Fatal("CC csv contains naive series")
	}
}

func TestRunMethodFilter(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-tiny", "-figure", "5", "-methods", "caslt,mutex"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "caslt") || !strings.Contains(out, "mutex") {
		t.Fatalf("filtered methods missing:\n%s", out)
	}
	if strings.Contains(out, "gatekeeper") {
		t.Fatal("filtered-out method present")
	}
}

func TestRunExecAxisJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	out, err := capture(t, func() error {
		return run([]string{"-tiny", "-figure", "7", "-exec", "team,trace",
			"-methods", "caslt", "-reps", "1", "-json", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "team exec") || !strings.Contains(out, "trace exec") {
		t.Fatalf("expected one fig7 table per exec mode:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Bench  string  `json:"bench"`
		Figure string  `json:"figure"`
		Kernel string  `json:"kernel"`
		Method string  `json:"method"`
		Exec   string  `json:"exec"`
		NsOp   float64 `json:"ns_op"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("json output unparsable: %v\n%s", err, data)
	}
	execs := map[string]int{}
	for _, r := range rows {
		if r.Bench != "figure" || r.Figure != "fig7" || r.Kernel != "bfs" || r.Method != "caslt" {
			t.Fatalf("unexpected row identity: %+v", r)
		}
		if r.NsOp <= 0 {
			t.Fatalf("non-positive ns_op: %+v", r)
		}
		execs[r.Exec]++
	}
	if execs["team"] == 0 || execs["trace"] == 0 || execs["team"] != execs["trace"] {
		t.Fatalf("want equal team and trace row counts, got %v", execs)
	}
}

func TestRunRoundOverhead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	out, err := capture(t, func() error {
		return run([]string{"-tiny", "-roundoverhead", "-reps", "1", "-json", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"roundoverhead", "team"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fig5") {
		t.Fatal("-roundoverhead without -figure ran the figure sweep")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Bench   string  `json:"bench"`
		Exec    string  `json:"exec"`
		Threads int     `json:"threads"`
		NsOp    float64 `json:"ns_op"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("json output unparsable: %v\n%s", err, data)
	}
	if len(rows) == 0 {
		t.Fatal("no roundoverhead rows in json")
	}
	for _, r := range rows {
		if r.Bench != "roundoverhead" || r.Threads <= 0 || r.NsOp <= 0 {
			t.Fatalf("bad roundoverhead row: %+v", r)
		}
	}
}

func TestRunEdgeBalance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eb.json")
	out, err := capture(t, func() error {
		return run([]string{"-tiny", "-edgebalance", "-reps", "1", "-json", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"edgebalance", "bfs-hybrid", "bfs-pull", "imbal", "skew"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fig5") {
		t.Fatal("-edgebalance without -figure ran the figure sweep")
	}
	// The emitted file must pass the CLI's own validator.
	vout, err := capture(t, func() error {
		return run([]string{"-validatejson", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vout, "rows ok") {
		t.Fatalf("validatejson output wrong:\n%s", vout)
	}
}

func TestRunStealingSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "steal.json")
	out, err := capture(t, func() error {
		return run([]string{"-tiny", "-stealing", "-reps", "1", "-json", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stealing", "guided", "crit", "local"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fig5") {
		t.Fatal("-stealing without -figure ran the figure sweep")
	}
	// The emitted file must pass the CLI's own validator.
	vout, err := capture(t, func() error {
		return run([]string{"-validatejson", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vout, "rows ok") {
		t.Fatalf("validatejson output wrong:\n%s", vout)
	}
}

func TestRunLocalitySweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loc.json")
	out, err := capture(t, func() error {
		return run([]string{"-tiny", "-locality", "-relabel", "none,degree", "-reps", "1", "-json", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"locality", "relabel=none", "relabel=degree", "bfs-pull", "bitmap", "ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "relabel=bfs") {
		t.Fatal("-relabel none,degree also ran the bfs mode")
	}
	if strings.Contains(out, "fig5") {
		t.Fatal("-locality without -figure ran the figure sweep")
	}
	// The emitted file must pass the CLI's own validator.
	vout, err := capture(t, func() error {
		return run([]string{"-validatejson", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vout, "rows ok") {
		t.Fatalf("validatejson output wrong:\n%s", vout)
	}
}

func TestRunPolicyFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pol.json")
	_, err := capture(t, func() error {
		return run([]string{"-tiny", "-figure", "5", "-policy", "stealing",
			"-methods", "caslt", "-reps", "1", "-json", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Bench  string `json:"bench"`
		Policy string `json:"policy"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("json output unparsable: %v\n%s", err, data)
	}
	if len(rows) == 0 {
		t.Fatal("no figure rows in json")
	}
	for _, r := range rows {
		if r.Bench != "figure" || r.Policy != "stealing" {
			t.Fatalf("figure row does not carry the requested policy: %+v", r)
		}
	}
	// Figure rows run uninstrumented machines, so the validator must accept
	// a stealing-policy figure row without deque counters.
	if _, err := capture(t, func() error { return run([]string{"-validatejson", path}) }); err != nil {
		t.Fatalf("stealing-policy figure rows rejected: %v", err)
	}
}

func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	_, err := capture(t, func() error {
		return run([]string{"-tiny", "-figure", "5", "-methods", "caslt", "-reps", "1",
			"-cpuprofile", cpu, "-memprofile", mem})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s: empty profile", p)
		}
	}
}

func TestRunBalanceAxis(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-tiny", "-figure", "7", "-balance", "vertex,edge",
			"-methods", "caslt", "-reps", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vertex balance") || !strings.Contains(out, "edge balance") {
		t.Fatalf("expected one fig7 table per balance policy:\n%s", out)
	}
	// A non-BFS figure runs once, under the first policy only.
	out, err = capture(t, func() error {
		return run([]string{"-tiny", "-figure", "5", "-balance", "vertex,edge",
			"-methods", "caslt", "-reps", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out, "== fig5"); n != 1 {
		t.Fatalf("figure 5 rendered %d tables across the balance axis, want 1:\n%s", n, out)
	}
}

func TestRunValidateJSONRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`[{"bench":"x","exec":"omp","threads":1,"ns_op":1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error { return run([]string{"-validatejson", path}) }); err == nil {
		t.Fatal("malformed json accepted")
	}
	if _, err := capture(t, func() error { return run([]string{"-validatejson", filepath.Join(t.TempDir(), "missing.json")}) }); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunOpCount(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-opcount", "-threads", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "section-6") || !strings.Contains(out, "P_PRAM") {
		t.Fatalf("opcount output wrong:\n%s", out)
	}
}

// TestListGolden pins the -list introspection output. The listing is
// generated from the kernel registry, so this is the contract that every
// registered kernel and every axis it supports is user-addressable;
// regenerate with `go test ./cmd/crcwbench -run TestListGolden -update`
// after a deliberate registration change.
func TestListGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := listKernels(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/list.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("-list output drifted from %s (rerun with -update after a deliberate registry change):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestRunSelectorFlag drives the generic -run path through the real CLI
// entry point: one legal assignment per input kind must execute, validate
// and report; an illegal one must fail with a diagnostic naming the axis.
func TestRunSelectorFlag(t *testing.T) {
	good := map[string]string{
		"kernel=maxfind,method=gatekeeper":                         "median",
		"kernel=bfs,method=caslt,exec=team,balance=edge,threads=4": "depth",
		"kernel=bfs-frontier,repr=bitmap,policy=stealing":          "policy=stealing",
		"kernel=listrank,exec=trace":                               "trace replay",
		"kernel=cc,relabel=degree":                                 "relabel=degree",
	}
	for sel, wantSub := range good {
		out, err := capture(t, func() error { return run([]string{"-tiny", "-run", sel}) })
		if err != nil {
			t.Errorf("-run %s: %v", sel, err)
			continue
		}
		if !strings.Contains(out, wantSub) {
			t.Errorf("-run %s output missing %q:\n%s", sel, wantSub, out)
		}
	}
	bad := map[string]string{
		"kernel=bfs,method=bogus":    "method",
		"kernel=maxfind,exec=pool":   "exec",
		"kernel=nope":                "unknown kernel",
		"kernel=maxfind,repr=bitmap": "no repr axis",
		"kernel=bfs,threads=zero":    "threads",
		"method=caslt":               "missing kernel",
	}
	for sel, wantSub := range bad {
		_, err := capture(t, func() error { return run([]string{"-tiny", "-run", sel}) })
		if err == nil {
			t.Errorf("-run %s: accepted", sel)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("-run %s: error %q does not mention %q", sel, err, wantSub)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-figure", "4"},
		{"-figure", "13"},
		{"-methods", "bogus"},
		{"-exec", "bogus"},
		{"-exec", "pool"},
		{"-balance", "bogus"},
		{"-policy", "bogus"},
		{"-relabel", "bogus"},
		{"-tiny", "-paper"},
		{"-nonexistent-flag"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
