// Command benchmark is the repository's benchmark: six workloads that run
// the registered PRAM kernels in a closed loop on runtime.NumCPU()
// workers, reporting end-to-end latency, throughput, CPU, set-up time and
// memory, and — with -trace 1 — per-layer counters and a cost ladder that
// predicts each kernel's wall time from its rung costs. It calls only the
// layers' public functions.
//
// Usage:
//
//	benchmark [-workload all|<name>] [-seed n] [-seconds s] [-trace 0|1] [-spans file] [-smoke]
//
// Every metric is printed by name with its unit; the last line is one
// JSON object with the fields correct, attempted, failed and metrics. The
// exit code is non-zero when any output check fails. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"crcwpram/internal/kernel"
)

// smokeSeconds is each workload's timed budget under -smoke.
const smokeSeconds = 0.25

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// cli runs the benchmark with the given arguments and returns its exit
// code: 0 on success, 1 when a check fails, 2 on bad flags. A non-nil wrap
// wraps every kernel instance (see config.wrap).
func cli(args []string, stdout, stderr io.Writer, wrap func(kernel.Instance) kernel.Instance) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 18, "timed seconds per workload, split over the slices")
	trace := fs.Int("trace", 1, "1 adds the per-layer pass and reports the per-layer metrics in the JSON result; 0 reports the end-to-end metrics")
	spans := fs.String("spans", "", "write the traced pass's spans and per-name self times to this JSON file")
	smoke := fs.Bool("smoke", false, "tiny durations and repetition counts, for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads
	if *name != "all" {
		w := lookupWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (want all or one of %s)\n", *name, workloadNames())
			return 2
		}
		ws = []*workload{w}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive, got %g\n", *seconds)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, layers: *trace == 1, smoke: *smoke, wrap: wrap}
	if *smoke {
		cfg.seconds = smokeSeconds
	}

	b := newBench(cfg, ws)
	fmt.Fprintf(stdout, "# P=%d seed=%d seconds=%g trace=%d\n", b.p, cfg.seed, cfg.seconds, *trace)
	if err := b.run(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	reports := b.reports()
	for _, r := range reports {
		r.print(stdout, cfg.layers)
	}
	if *spans != "" {
		if err := b.spans.write(*spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	res := result(reports, cfg.layers)
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %d of %d runs failed the output check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
