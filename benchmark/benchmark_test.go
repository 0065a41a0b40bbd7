package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"crcwpram/internal/kernel"
)

// declaration mirrors BENCHMARK.json at the repository root.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var d declaration
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// runBenchmark runs the command in-process and returns its exit code, its
// standard output and the JSON result on its last line (zero when absent).
func runBenchmark(t *testing.T, wrap func(kernel.Instance) kernel.Instance, args ...string) (int, string, jsonResult) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := cli(args, &stdout, &stderr, wrap)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if last := lines[len(lines)-1]; strings.HasPrefix(last, "{") {
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("last line is not a JSON result: %v", err)
		}
	}
	return code, stdout.String(), res
}

func TestSchema(t *testing.T) {
	d := loadDeclaration(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(d.EndToEnd) < 1 || len(d.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(d.EndToEnd))
	}
	if len(d.PerLayer) < 1 || len(d.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(d.PerLayer))
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		checkName(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the program reports %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range d.EndToEnd {
		checkName(m.Name)
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower better")
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the program reports %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		checkName(m.Name)
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}

	spans := filepath.Join(t.TempDir(), "spans.json")
	for _, trace := range []string{"0", "1"} {
		args := []string{"-smoke", "-workload", "all", "-trace", trace}
		declared := endToEnd
		if trace == "1" {
			args = append(args, "-spans", spans)
			declared = perLayer
		}
		code, out, res := runBenchmark(t, nil, args...)
		if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("-trace %s: exit %d, result %+v\n%s", trace, code, res, out)
		}
		if len(res.Metrics) != len(declared)*len(workloads) {
			t.Errorf("-trace %s: %d metrics in the result, want %d", trace, len(res.Metrics), len(declared)*len(workloads))
		}
		for _, w := range workloads {
			for _, m := range declared {
				got, ok := res.Metrics[w.name+"."+m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("-trace %s: %s.%s missing or not in %s: %+v", trace, w.name, m.name, m.unit, got)
				}
				if !strings.Contains(out, m.name) {
					t.Errorf("-trace %s: %s not printed", trace, m.name)
				}
			}
		}
	}

	var sp struct {
		Spans  []span           `json:"spans"`
		SelfNs map[string]int64 `json:"self_ns"`
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"setup", "graph.gen", "machine.new", "kernel.new", "kernel.prepare", "kernel.run", "kernel.validate", "iteration", "bench.check"} {
		if _, ok := sp.SelfNs[n]; !ok {
			t.Errorf("no %s span", n)
		}
	}
}

func TestOneWorkloadKeepsPlainNames(t *testing.T) {
	code, _, res := runBenchmark(t, nil, "-smoke", "-workload", "grid_rounds", "-trace", "0")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, m := range endToEnd {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("metric %s missing", m.name)
		}
	}
	if code, _, _ := runBenchmark(t, nil, "-workload", "nope"); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}

// corrupting flips one byte of every 10th outcome. The first run of each
// instance and its warm-ups come before the 10th, so every corruption
// lands on a timed run.
type corrupting struct {
	kernel.Instance
	runs, corrupted *int
	n               int
}

func (c *corrupting) Run(s kernel.Settings) kernel.Outcome {
	o := c.Instance.Run(s)
	c.n++
	*c.runs++
	if c.n%10 == 0 {
		v := append([]uint32(nil), o.Vector...)
		v[len(v)/2] ^= 0x10
		o.Vector = v
		*c.corrupted++
	}
	return o
}

func TestOutputCheckCountsCorruptedRuns(t *testing.T) {
	var runs, corrupted, instances int
	wrap := func(in kernel.Instance) kernel.Instance {
		instances++
		return &corrupting{Instance: in, runs: &runs, corrupted: &corrupted}
	}
	code, out, res := runBenchmark(t, wrap, "-workload", "bfs_sweep", "-seconds", "3", "-trace", "0")
	if code != 1 || res.Correct {
		t.Fatalf("exit %d, correct %v: corrupted runs must fail the benchmark\n%s", code, res.Correct, out)
	}
	untimed := instances * (1 + warmups)
	if res.Failed != corrupted || res.Attempted != runs-untimed {
		t.Fatalf("failed %d of %d, want %d of %d", res.Failed, res.Attempted, corrupted, runs-untimed)
	}
	share := float64(res.Failed) / float64(res.Attempted)
	if tol := float64(slices) / float64(res.Attempted); share < 0.1-tol || share > 0.1+tol {
		t.Errorf("fail share %.4f, want 0.1 within %.4f", share, tol)
	}
	if ok := res.Metrics["ok_ratio"].Value; math.Abs(ok-(1-share)) > 1e-12 {
		t.Errorf("ok_ratio %g, want %g", ok, 1-share)
	}
}

// invalid makes every run fail the kernel's oracle.
type invalid struct{ kernel.Instance }

func (invalid) Validate() error { return errors.New("wrong answer") }

func TestFailingValidateExitsNonZero(t *testing.T) {
	wrap := func(in kernel.Instance) kernel.Instance { return invalid{in} }
	code, out, res := runBenchmark(t, wrap, "-smoke", "-workload", "maxfind_cw", "-trace", "0")
	if code != 1 || res.Attempted != 0 {
		t.Fatalf("exit %d, result %+v: a failing Validate must stop the benchmark\n%s", code, res, out)
	}
}

func TestCheckerMatchesProjection(t *testing.T) {
	for _, w := range workloads {
		d := w.descriptor()
		ref := kernel.Outcome{Vector: []uint32{3, 1, 4, 1, 5}, Depth: 2}
		c := checker{d, d.Projection(ref)}
		for _, o := range []kernel.Outcome{
			ref,
			{Vector: []uint32{3, 1, 4, 1, 5}, Depth: 3},
			{Vector: []uint32{3, 1, 4, 1, 6}, Depth: 2},
			{Vector: []uint32{3, 1, 4, 1}, Depth: 2},
			{Vector: []uint32{7, 1, 4, 1, 5}, Depth: 2},
		} {
			if got, want := c.same(o), bytes.Equal(d.Projection(o), c.ref); got != want {
				t.Errorf("%s: same(%v) = %v, Projection comparison says %v", w.name, o, got, want)
			}
		}
	}
}

// delayed stretches every Run to 1+extra times its own duration.
type delayed struct {
	kernel.Instance
	extra float64
}

func (d delayed) Run(s kernel.Settings) kernel.Outcome {
	t := time.Now()
	o := d.Instance.Run(s)
	until := t.Add(time.Duration(float64(time.Since(t)) * (1 + d.extra)))
	for time.Now().Before(until) {
	}
	return o
}

// regressions returns the end-to-end metrics on which cand is worse than
// base by more than the bound BENCHMARK.json declares. setup_s is left
// out: a short run sets up too few times to hold it to its bound.
func regressions(d declaration, base, cand map[string]float64) []string {
	var out []string
	for _, m := range d.EndToEnd {
		if m.Name == "setup_s" || base[m.Name] == 0 {
			continue
		}
		worse := (cand[m.Name] - base[m.Name]) / base[m.Name]
		if m.Better == "higher" {
			worse = -worse
		}
		if worse > m.Bound {
			out = append(out, m.Name)
		}
	}
	return out
}

// slower applies the rule for a change measured in a small sandbox to
// alternated pairs of runs: cand is slower when it loses at least nine
// tenths of the pairs and the medians differ by more than the distance
// between base's quartiles.
func slower(base, cand []float64) bool {
	losses := 0
	for i := range base {
		if cand[i] > base[i] {
			losses++
		}
	}
	return 10*losses >= 9*len(base) && median(cand)-median(base) > quantile(base, 0.75)-quantile(base, 0.25)
}

// TestSensitivity delays every Run by a calibrated 20% and checks that
// the benchmark resolves it. The host's load shifts by up to a quarter
// between runs of a few seconds, which is why BENCHMARK.json bounds the
// unpaired run_ms_p50 at 25%; alternating the sides cancels the shifts.
func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("times ten alternated triples of short bfs_sweep runs")
	}
	d := loadDeclaration(t)
	args := []string{"-workload", "bfs_sweep", "-seconds", "0.5", "-trace", "0"}
	slow := func(in kernel.Instance) kernel.Instance { return delayed{in, 0.2} }
	sides := []string{"base", "slow", "same"}
	p50 := map[string][]float64{}
	all := map[string]map[string][]float64{}
	for i := 0; i < 10; i++ {
		for _, side := range sides {
			wrap := slow
			if side != "slow" {
				wrap = nil
			}
			code, out, res := runBenchmark(t, wrap, args...)
			if code != 0 {
				t.Fatalf("%s: exit %d\n%s", side, code, out)
			}
			p50[side] = append(p50[side], res.Metrics["run_ms_p50"].Value)
			if all[side] == nil {
				all[side] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				all[side][k] = append(all[side][k], v.Value)
			}
		}
	}
	rise := median(p50["slow"])/median(p50["base"]) - 1
	t.Logf("run_ms_p50 medians: base %.4g, same %.4g, slow %.4g ms (+%.1f%%)", median(p50["base"]), median(p50["same"]), median(p50["slow"]), 100*rise)
	if rise < 0.15 || rise > 0.25 {
		t.Errorf("a 20%% slower Run raised run_ms_p50 by %.1f%%, want 15-25%%", 100*rise)
	}
	if !slower(p50["base"], p50["slow"]) {
		t.Errorf("the 20%% slower Run is not resolved: base %v, slow %v", p50["base"], p50["slow"])
	}
	if slower(p50["base"], p50["same"]) {
		t.Errorf("identical code resolved as slower: base %v, same %v", p50["base"], p50["same"])
	}
	med := map[string]map[string]float64{}
	for _, side := range sides {
		med[side] = map[string]float64{}
		for k, xs := range all[side] {
			med[side][k] = median(xs)
		}
	}
	if r := regressions(d, med["base"], med["same"]); len(r) > 0 {
		t.Errorf("identical code flagged by the bounds on %v", r)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestLeakedGoroutineFailsTheSlice(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	// Each instance starts a goroutine that outlives its machine.
	wrap := func(in kernel.Instance) kernel.Instance {
		go func() { <-stop }()
		return in
	}
	g0 := runtime.NumGoroutine()
	code, out, _ := runBenchmark(t, wrap, "-smoke", "-workload", "maxfind_cw", "-trace", "0")
	if code != 1 {
		t.Fatalf("exit %d: a goroutine outliving its slice must fail the benchmark\n%s", code, out)
	}
	if n := runtime.NumGoroutine(); n != g0+1 {
		t.Errorf("%d goroutines after the failed run, want the leaked one over %d", n, g0)
	}
}

// TestNamesNoBackendConstant keeps the benchmark independent of which
// timed backends and barrier kinds exist: it iterates machine.Execs and
// barrier.Kinds and uses the machine's default backend.
func TestNamesNoBackendConstant(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := regexp.MustCompile(`machine\.Exec(Pool|Team)\b|barrier\.Kind[A-Z]`)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if loc := banned.Find(b); loc != nil {
			t.Errorf("%s names %s", f, loc)
		}
	}
}
