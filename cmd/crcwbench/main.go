// Command crcwbench regenerates the paper's evaluation figures.
//
// Each paper figure (5 through 12) is a time-vs-parameter sweep comparing
// concurrent-write methods; crcwbench runs one figure or all of them,
// prints a paper-style table with per-point and geometric-mean speedups,
// and can additionally emit CSV for plotting.
//
// Usage:
//
//	crcwbench [flags]
//
//	-figure N       figure to run: 5..12, or 0 for all (default 0)
//	-threads P      worker count for fixed-thread figures
//	-reps R         repetitions per point (median reported)
//	-seed S         workload generation seed
//	-methods LIST   comma-separated subset: caslt,gatekeeper,
//	                gatekeeper-checked,naive,mutex
//	-exec LIST      comma-separated execution modes: team (one persistent
//	                parallel region per kernel, the default) and/or trace
//	                (serial counting replay, for debugging); figures run
//	                once per listed mode
//	-balance LIST   comma-separated work-partitioning policies: vertex
//	                (equal vertex counts, the paper's split, the default)
//	                and/or edge (equal arc counts); the BFS figures run
//	                once per listed policy, other figures ignore the axis
//	-policy NAME    machine loop-scheduling policy for the figure and
//	                list-ranking sweeps: block (static split, the default),
//	                cyclic, dynamic, guided or stealing (per-worker deques
//	                with randomized stealing); the dedicated sweeps pick
//	                their own policies and ignore this
//	-paper          use the paper's full-size parameters (needs a large
//	                machine; the default is a scaled-down sweep with the
//	                same shape)
//	-csv FILE       also write raw medians as CSV
//	-json FILE      write machine-readable results (kernel, method, exec
//	                mode, threads, ns/op) for all benchmarks run
//	-cpuprofile F   write a pprof CPU profile of the whole run to F
//	-memprofile F   write a pprof heap profile (after a forced GC) to F
//	                when the run finishes
//	-v              log per-point progress to stderr
//	-tiny           miniature smoke-test sweep
//
// The per-round fixed-cost microbenchmark:
//
//	-roundoverhead  measure ns per empty work-shared round inside a kernel
//	                region across the thread sweep; combinable
//	                with -figure N (use -figure 0 explicitly to also run
//	                all figures)
//	-edgebalance    run the load-balance sweep: the CAS-LT BFS variants
//	                (sweep, frontier, pull, hybrid) on an RMAT and a star
//	                graph under both balance policies, reporting wall
//	                medians plus the deterministic work model; combinable
//	                like -roundoverhead
//	-listrank       time Wyllie's list ranking (the EREW comparison kernel)
//	                across the size sweep; combinable like -roundoverhead
//	-stealing       run the scheduling-policy sweep: frontier and hybrid
//	                BFS on an RMAT and a degree-uniform graph across every
//	                policy and the StealThreads axis, reporting wall
//	                medians, the deterministic scheduling model (critical
//	                path with per-chunk acquisition costs vs the ideal
//	                split) and the live deque counters of the stealing
//	                cells; combinable like -roundoverhead
//	-locality       run the memory-layout sweep: pull and hybrid BFS on an
//	                RMAT graph across the representation axis (word-per-cell
//	                membership arrays vs bit-packed fetch-OR frontiers), the
//	                CSR relabeling axis and the LocThreads axis, reporting
//	                wall medians plus the deterministic cache-line-touch
//	                model on the bitmap cells; combinable like
//	                -roundoverhead
//	-relabel LIST   comma-separated CSR relabeling modes for the locality
//	                sweep: none (identity), degree (descending-degree
//	                sort) and/or bfs (visitation order); default is all
//	                three
//
// Live contention metrics (the observability layer, not a timing figure —
// the per-cell probe adds contention of its own, so these runs are never
// timed):
//
//	-metrics        run every kernel under the guarded CW methods with the
//	                machine's metrics recorder and per-cell probe enabled,
//	                and print per-kernel CAS attempts / wins / losses,
//	                pre-check skips, the observed maximum executed attempts
//	                on any cell in any round (checked against the paper's
//	                ≤ P bound), rounds to convergence, and the busy /
//	                barrier-wait split; combinable like -roundoverhead
//	-metricsjson F  write just the metrics rows as JSON to F (the rows are
//	                also appended to -json output when both are given)
//	-overhead       time a full CAS-LT BFS run under the three
//	                instrumentation variants (off / metrics / evtrace) at
//	                p=1 and p=-threads; the JSON rows are the
//	                BENCH_metrics_overhead.json baseline; combinable like
//	                -roundoverhead
//
// Round-level timelines (the event-trace flight recorder,
// internal/core/trace; attaches a recorder to every machine the sweeps
// build, so combine these with any sweep, figure or -run):
//
//	-trace FILE     drain every machine's flight recorder when the run
//	                finishes and write the merged timeline as Chrome
//	                trace-event / Perfetto JSON (load in ui.perfetto.dev
//	                or chrome://tracing): one track per worker with
//	                round / region / barrier-wait / fault spans and
//	                steal / claim instants, plus per-round CAS win/loss
//	                counter tracks
//	-runtimetrace F additionally write a runtime/trace of the whole run
//	                to F, with PRAM rounds as trace regions aligned with
//	                goroutine scheduling (view with go tool trace F)
//	-httpaddr ADDR  serve the live observability endpoint on ADDR (e.g.
//	                :6060) while the run executes: /debug/vars carries
//	                the "evtrace" rolling counters (round rate, current
//	                round, CAS wins/losses), /debug/pprof/* the standard
//	                profiles
//	-httphold DUR   keep the -httpaddr endpoint up DUR after the
//	                benchmarks finish, so a scraper can read the final
//	                counters (CI's trace-smoke job does)
//	-validatetrace F schema-check a -trace output file against the
//	                trace-event format and exit (used by CI); runs
//	                nothing else
//
// Registry introspection and single runs (every kernel and axis below
// comes from the kernel registry — a kernel added by one Register call
// appears here with no crcwbench edits):
//
//	-list           print every registered kernel with its swept axes and
//	                their legal values; runs nothing else
//	-run SEL        run one registered kernel under one full axis
//	                assignment, e.g.
//	                kernel=bfs,method=caslt,exec=team,balance=edge,threads=4;
//	                unset axes keep the sweep defaults (team exec, CAS-LT
//	                where supported, block policy, -threads workers); runs
//	                nothing else
//
// Adversarial robustness (the chaos layer; never a timing figure):
//
//	-chaos SPEC     run the registry-wide chaos matrix: every kernel ×
//	                method × team × block/stealing × seed under
//	                deterministic schedule faults, byte-compared against
//	                unperturbed references with the runtime CW invariant
//	                checker attached; SPEC is
//	                seed=S1+S2+...,faults=F1+F2+... with faults drawn from
//	                stall, jitter, steal-delay, storm, sticky-loser, all
//	                (-chaos default = seeds 1+2+3, all faults); runs
//	                nothing else
//
// And a baseline checker:
//
//	-validatejson F  parse a -json output file and verify its shape (used
//	                 by CI's perf-smoke step); runs nothing else
//
// Instead of a timing figure, four analyses are available:
//
//	-opcount        the Section-6 validation: atomic operations per
//	                concurrent-write step on one cell, as P_PRAM grows
//	-kernelops      selection-protocol operation counts over full BFS and
//	                CC runs (counting resolvers composed with the trace
//	                execution backend); combinable with -json
//	-kerneltrace    structural cost (steps, barriers, CW rounds, per-worker
//	                iteration split) of every kernel of the suite under the
//	                trace backend; combinable with -json
//	-simulations    one Priority write step per rung of the CW hierarchy
//	                (native / common-CW all-pairs / EREW tournament)
//
// Examples:
//
//	crcwbench -figure 5
//	crcwbench -figure 10 -threads 8 -reps 5 -csv fig10.csv
//	crcwbench -paper -figure 7
//	crcwbench -figure 7 -exec team -json bench.json
//	crcwbench -figure 7 -policy stealing -methods caslt
//	crcwbench -roundoverhead
//	crcwbench -edgebalance -threads 8 -json BENCH_edgebalance.json
//	crcwbench -validatejson BENCH_edgebalance.json
//	crcwbench -listrank -threads 8
//	crcwbench -stealing -json BENCH_stealing.json
//	crcwbench -stealing -cpuprofile steal.prof
//	crcwbench -locality -json BENCH_locality.json
//	crcwbench -locality -relabel none,degree -threads 8
//	crcwbench -tiny -metrics -exec team -metricsjson metrics.json
//	crcwbench -overhead -json BENCH_metrics_overhead.json
//	crcwbench -locality -trace timeline.json -httpaddr :6060
//	crcwbench -run kernel=bfs-hybrid,exec=team -trace out.json -runtimetrace rt.out
//	crcwbench -validatetrace timeline.json
//	crcwbench -kernelops -kerneltrace -json kernelops.json
//	crcwbench -list
//	crcwbench -run kernel=bfs-hybrid,repr=bitmap,policy=stealing -tiny
//	crcwbench -chaos default
//	crcwbench -chaos seed=7+8,faults=stall+storm+sticky-loser -v
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"crcwpram/internal/bench"
	"crcwpram/internal/core/chaos"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"
	"crcwpram/internal/sched"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crcwbench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("crcwbench", flag.ContinueOnError)
	var (
		figure        = fs.Int("figure", 0, "paper figure to reproduce (5..12), 0 = all")
		threads       = fs.Int("threads", 0, "worker count for fixed-thread figures (0 = default)")
		reps          = fs.Int("reps", 0, "repetitions per point (0 = default)")
		seed          = fs.Int64("seed", 0, "workload seed (0 = default)")
		methods       = fs.String("methods", "", "comma-separated method subset (empty = figure's paper set)")
		paper         = fs.Bool("paper", false, "use the paper's full-size parameters")
		csvPath       = fs.String("csv", "", "also write raw medians as CSV to this file")
		verbose       = fs.Bool("v", false, "log per-point progress to stderr")
		tiny          = fs.Bool("tiny", false, "miniature sweep for smoke tests (seconds, shapes not meaningful)")
		execList      = fs.String("exec", "team", "comma-separated execution modes to measure: team and/or trace")
		balanceList   = fs.String("balance", "vertex", "comma-separated work-partitioning policies for the BFS figures: vertex and/or edge")
		policyName    = fs.String("policy", "", "machine loop-scheduling policy for the figure and listrank sweeps: block, cyclic, dynamic, guided or stealing (empty = block)")
		jsonPath      = fs.String("json", "", "write machine-readable results as JSON to this file")
		roundoverhead = fs.Bool("roundoverhead", false, "measure ns per empty round across the thread sweep")
		edgebalance   = fs.Bool("edgebalance", false, "run the BFS load-balance sweep (balance x kernel x exec) with the deterministic work model")
		listrankSweep = fs.Bool("listrank", false, "time Wyllie's list ranking across the size sweep")
		stealingSweep = fs.Bool("stealing", false, "run the scheduling-policy sweep (kernel x policy x threads on RMAT and uniform graphs) with the deterministic scheduling model and live deque counters")
		localitySweep = fs.Bool("locality", false, "run the memory-layout sweep (kernel x repr x relabel x threads on an RMAT graph) with the deterministic cache-line-touch model")
		relabelList   = fs.String("relabel", "", "comma-separated CSR relabeling modes for the locality sweep: none, degree and/or bfs (empty = all)")
		validateJSON  = fs.String("validatejson", "", "validate a -json output file and exit")
		listKernelSet = fs.Bool("list", false, "print every registered kernel with its sweepable axes and exit")
		chaosSpec     = fs.String("chaos", "", "run the adversarial-schedule chaos matrix over every registered kernel and exit; value is seed=S1+S2+...,faults=F1+F2+... (faults: stall, jitter, steal-delay, storm, sticky-loser, all; empty value parts default to seeds 1+2+3 and all faults, so -chaos default works)")
		runSelector   = fs.String("run", "", "run one kernel under one axis assignment, e.g. kernel=bfs,method=caslt,exec=team,threads=4; runs nothing else")
		opcount       = fs.Bool("opcount", false, "run the Section-6 atomic-operation-count validation instead of a timing figure")
		kernelops     = fs.Bool("kernelops", false, "count selection-protocol operations over full BFS/CC runs (trace backend) instead of timing")
		kerneltrace   = fs.Bool("kerneltrace", false, "report every kernel's structural cost (steps, barriers, rounds) under the trace backend")
		metricsTable  = fs.Bool("metrics", false, "run every kernel on a metrics-enabled machine and report live contention (CAS attempts/wins/losses, pre-check skips, max RMWs per cell per round, busy/barrier time split) per listed timed exec mode")
		metricsJSON   = fs.String("metricsjson", "", "write the -metrics contention rows alone as JSON to this file (implies -metrics)")
		overhead      = fs.Bool("overhead", false, "time a full CAS-LT BFS run under the three instrumentation variants (off, metrics, evtrace) at p=1 and p=-threads")
		tracePath     = fs.String("trace", "", "write the merged round-level timeline of every machine the run builds as Chrome trace-event / Perfetto JSON to this file")
		runtimeTraceP = fs.String("runtimetrace", "", "write a runtime/trace of the whole run (PRAM rounds as regions) to this file; view with go tool trace")
		httpAddr      = fs.String("httpaddr", "", "serve the live observability endpoint (/debug/vars with the evtrace counters, /debug/pprof) on this address while the run executes, e.g. :6060")
		httpHold      = fs.Duration("httphold", 0, "keep the -httpaddr endpoint up this long after the benchmarks finish")
		validateTrace = fs.String("validatetrace", "", "schema-check a -trace output file against the Chrome trace-event format and exit")
		simulations   = fs.Bool("simulations", false, "time one Priority write step per rung of the CW hierarchy instead of a figure")
		cpuProfile    = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProfile    = fs.String("memprofile", "", "write a pprof heap profile (after a forced GC) to this file when the run finishes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := bench.DefaultConfig()
	if *paper {
		cfg = bench.PaperConfig()
	}
	if *tiny {
		if *paper {
			return fmt.Errorf("-tiny and -paper are mutually exclusive")
		}
		cfg = bench.TinyConfig()
	}
	if *threads > 0 {
		cfg.Threads = *threads
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	if *methods != "" {
		for _, name := range strings.Split(*methods, ",") {
			m, ok := cw.ParseMethod(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown method %q (known: %v)", name, cw.Methods)
			}
			cfg.Methods = append(cfg.Methods, m)
		}
	}
	var execs []machine.Exec
	for _, name := range strings.Split(*execList, ",") {
		e, ok := machine.ParseExec(strings.TrimSpace(name))
		if !ok {
			return fmt.Errorf("unknown exec mode %q (known: %v)", name, machine.Execs)
		}
		execs = append(execs, e)
	}
	var balances []graph.Balance
	for _, name := range strings.Split(*balanceList, ",") {
		b, ok := graph.ParseBalance(strings.TrimSpace(name))
		if !ok {
			return fmt.Errorf("unknown balance policy %q (known: %v)", name, graph.Balances)
		}
		balances = append(balances, b)
	}
	if *relabelList != "" {
		cfg.Relabels = nil
		for _, name := range strings.Split(*relabelList, ",") {
			mode, ok := graph.ParseRelabel(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown relabel mode %q (known: %v)", name, graph.RelabelModes)
			}
			cfg.Relabels = append(cfg.Relabels, mode)
		}
	}
	if *policyName != "" {
		pol, ok := sched.ParsePolicy(strings.TrimSpace(*policyName))
		if !ok {
			return fmt.Errorf("unknown scheduling policy %q (known: %v)", *policyName, sched.Policies)
		}
		cfg.Policy = pol
	}

	// Profiling wraps everything the run does, including the dedicated
	// sweeps, so a single flag profiles whichever benchmark was requested.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("close cpu profile: %w", cerr)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeHeapProfile(*memProfile); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	if *validateJSON != "" {
		f, err := os.Open(*validateJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := bench.ValidateJSON(f)
		if err != nil {
			return fmt.Errorf("%s: %w", *validateJSON, err)
		}
		fmt.Printf("%s: %d rows ok\n", *validateJSON, n)
		return nil
	}
	if *validateTrace != "" {
		f, err := os.Open(*validateTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		st, err := evtrace.ValidateChromeTrace(f)
		if err != nil {
			return fmt.Errorf("%s: %w", *validateTrace, err)
		}
		fmt.Printf("%s: %d events ok (%d spans, %d instants, %d counter samples, %d worker tracks)\n",
			*validateTrace, st.Events, st.Spans, st.Instants, st.Counters, st.Workers)
		return nil
	}

	if *listKernelSet {
		return listKernels(os.Stdout)
	}
	if *chaosSpec != "" {
		return runChaos(os.Stdout, cfg.Threads, *chaosSpec, *verbose)
	}

	// The event-trace sink rides along with whatever else was requested:
	// every machine a sweep (or -run) builds gets a flight recorder, the
	// live endpoint reads the rolling counters while runs execute, and the
	// merged timeline is written once everything finishes.
	var sink *evtrace.Sink
	if *tracePath != "" || *httpAddr != "" || *runtimeTraceP != "" {
		var sopts []evtrace.Option
		if *runtimeTraceP != "" {
			sopts = append(sopts, evtrace.WithRuntimeTrace())
		}
		sink = evtrace.NewSink(0, sopts...)
		cfg.Events = sink
	}
	if *runtimeTraceP != "" {
		f, err := os.Create(*runtimeTraceP)
		if err != nil {
			return fmt.Errorf("create runtime trace: %w", err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			return fmt.Errorf("start runtime trace: %w", err)
		}
		defer func() {
			rtrace.Stop()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("close runtime trace: %w", cerr)
			}
		}()
	}
	if *httpAddr != "" {
		srv, addr, serr := sink.Serve(*httpAddr)
		if serr != nil {
			return fmt.Errorf("serve %s: %w", *httpAddr, serr)
		}
		fmt.Fprintf(os.Stderr, "crcwbench: live endpoint on http://%s/debug/vars\n", addr)
		defer func() {
			if *httpHold > 0 {
				time.Sleep(*httpHold)
			}
			srv.Close()
		}()
	}

	// writeTrace drains the sink into one merged timeline and writes the
	// Chrome trace-event JSON; it runs after the last benchmark on every
	// path that executes kernels (including -run's early return).
	writeTrace := func() error {
		if *tracePath == "" {
			return nil
		}
		tl := sink.Timeline()
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("create trace: %w", err)
		}
		defer f.Close()
		if err := tl.WriteChromeTrace(f); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "crcwbench: wrote %d spans over %d worker tracks (%d dropped) to %s\n",
			len(tl.Spans), tl.P, tl.Dropped, *tracePath)
		return nil
	}

	if *runSelector != "" {
		res, err := bench.RunSelector(kernel.Default, cfg, *runSelector)
		if err != nil {
			return err
		}
		if err := bench.FormatSelector(os.Stdout, res); err != nil {
			return err
		}
		return writeTrace()
	}

	if *opcount {
		rows := bench.OpCountTable(cfg.Threads, []int{1000, 10000, 100000, 1000000})
		return bench.FormatOpCounts(os.Stdout, cfg.Threads, rows)
	}
	if *simulations {
		rows := bench.SimulationTable(cfg.Threads, cfg.Reps, []int{64, 256, 1024, 4096}, cfg.Seed)
		return bench.FormatSimulations(os.Stdout, rows)
	}

	var jsonRows []bench.Row
	printed := false
	section := func() {
		if printed {
			fmt.Println()
		}
		printed = true
	}

	if *kernelops {
		nv, ne := cfg.BFSVertices, cfg.BFSEdges
		rows := bench.KernelOpCounts(kernel.Default, cfg.Threads, nv, ne, cfg.Seed)
		section()
		if err := bench.FormatKernelOps(os.Stdout, nv, ne, rows); err != nil {
			return err
		}
		jsonRows = append(jsonRows, bench.KernelOpsJSONRows(rows, cfg.Threads)...)
	}

	if *kerneltrace {
		nv, ne := cfg.BFSVertices, cfg.BFSEdges
		rows := bench.KernelTraceCounts(kernel.Default, cfg.Threads, nv, ne, cfg.Seed)
		section()
		if err := bench.FormatKernelTraces(os.Stdout, nv, ne, rows); err != nil {
			return err
		}
		jsonRows = append(jsonRows, bench.KernelTraceJSONRows(rows)...)
	}

	if *metricsTable || *metricsJSON != "" {
		nv, ne := cfg.BFSVertices, cfg.BFSEdges
		rows, err := bench.Contention(kernel.Default, cfg.Threads, nv, ne, cfg.Seed, execs)
		if err != nil {
			return err
		}
		section()
		if err := bench.FormatContention(os.Stdout, cfg.Threads, nv, ne, rows); err != nil {
			return err
		}
		mrows := bench.ContentionJSONRows(rows, cfg.Threads)
		jsonRows = append(jsonRows, mrows...)
		if *metricsJSON != "" {
			f, err := os.Create(*metricsJSON)
			if err != nil {
				return fmt.Errorf("create metrics json: %w", err)
			}
			defer f.Close()
			if err := bench.WriteJSON(f, mrows); err != nil {
				return fmt.Errorf("write metrics json: %w", err)
			}
		}
	}

	if *overhead {
		rows, err := bench.ObservabilityOverhead(cfg)
		if err != nil {
			return err
		}
		section()
		if err := bench.FormatObsOverhead(os.Stdout, rows); err != nil {
			return err
		}
		jsonRows = append(jsonRows, bench.ObsOverheadJSONRows(rows)...)
	}

	if *roundoverhead {
		rows := bench.RoundOverhead(cfg.ThreadSweep, 0, cfg.Reps, cfg.Log)
		section()
		if err := bench.FormatRoundOverhead(os.Stdout, rows); err != nil {
			return err
		}
		jsonRows = append(jsonRows, bench.OverheadJSONRows(rows)...)
	}

	if *edgebalance {
		// Like -roundoverhead, the sweep measures every timed mode.
		infos, rows, err := bench.EdgeBalance(cfg, nil)
		if err != nil {
			return err
		}
		section()
		if err := bench.FormatEdgeBalance(os.Stdout, infos, rows); err != nil {
			return err
		}
		jsonRows = append(jsonRows, bench.EdgeBalanceJSONRows(rows)...)
	}

	if *listrankSweep {
		rows, err := bench.ListRank(cfg, nil)
		if err != nil {
			return err
		}
		section()
		if err := bench.FormatListRank(os.Stdout, cfg.Threads, rows); err != nil {
			return err
		}
		jsonRows = append(jsonRows, bench.ListRankJSONRows(rows)...)
	}

	if *stealingSweep {
		// The policy axis IS the sweep here, so -policy does not apply; the
		// first listed exec mode drives the timed cells.
		rows, err := bench.Stealing(cfg, execs[0])
		if err != nil {
			return err
		}
		section()
		if err := bench.FormatStealing(os.Stdout, rows); err != nil {
			return err
		}
		jsonRows = append(jsonRows, bench.StealingJSONRows(rows)...)
	}

	if *localitySweep {
		// The representation axis IS the comparison here; like -stealing,
		// the first listed exec mode drives the timed cells.
		rows, err := bench.Locality(cfg, execs[0])
		if err != nil {
			return err
		}
		section()
		if err := bench.FormatLocality(os.Stdout, rows); err != nil {
			return err
		}
		jsonRows = append(jsonRows, bench.LocalityJSONRows(rows)...)
	}

	figureSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "figure" {
			figureSet = true
		}
	})
	ids := bench.SortedFigureIDs()
	if *figure != 0 {
		ids = []int{*figure}
	} else if (*roundoverhead || *overhead || *edgebalance || *listrankSweep || *stealingSweep || *localitySweep ||
		*kernelops || *kerneltrace || *metricsTable || *metricsJSON != "") && !figureSet {
		// The dedicated sweeps and analyses alone run only themselves; add
		// -figure 0 explicitly to also sweep every figure.
		ids = nil
	}

	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("create csv: %w", err)
		}
		defer f.Close()
		csvFile = f
	}

	for _, exec := range execs {
		cfg.Exec = exec
		for _, id := range ids {
			// The balance axis only moves the BFS figures; everything else
			// runs once, under the first listed policy.
			bals := balances
			if !bench.FigureUsesBalance(id) {
				bals = balances[:1]
			}
			for _, bal := range bals {
				cfg.Balance = bal
				table, err := bench.Figure(id, cfg)
				if err != nil {
					return err
				}
				section()
				if err := table.Format(os.Stdout); err != nil {
					return err
				}
				if csvFile != nil {
					if err := table.WriteCSV(csvFile); err != nil {
						return fmt.Errorf("write csv: %w", err)
					}
				}
				jsonRows = append(jsonRows, table.Rows(cfg.Threads)...)
			}
		}
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return fmt.Errorf("create json: %w", err)
		}
		defer f.Close()
		if err := bench.WriteJSON(f, jsonRows); err != nil {
			return fmt.Errorf("write json: %w", err)
		}
	}
	return writeTrace()
}

// listKernels prints the registry: every kernel with its summary and its
// sweepable axes with their legal values. This output is derived entirely
// from the descriptors, so a kernel added by a single registration appears
// here (and becomes -run addressable) with no other edits.
func listKernels(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "registered kernels (%d):\n", len(kernel.All()))
	for _, d := range kernel.All() {
		fmt.Fprintf(&b, "\n%s (%s)\n", d.Name, d.Pkg)
		fmt.Fprintf(&b, "  %s\n", d.Summary)
		for _, ax := range d.Axes() {
			fmt.Fprintf(&b, "  %-8s %s\n", ax.Name, strings.Join(ax.Values, " | "))
		}
		fmt.Fprintf(&b, "  %-8s any positive integer\n", kernel.AxisThreads)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// runChaos parses the -chaos spec and drives the registry-wide chaos
// matrix: every kernel × method × timed backend × block/stealing policy ×
// seed under the requested faults, byte-compared against unperturbed
// references with the runtime invariant checker attached. It reports the
// matrix shape on success and the first divergence or violation on
// failure.
func runChaos(w io.Writer, threads int, spec string, verbose bool) error {
	s, err := chaos.ParseSpec(spec)
	if err != nil {
		return err
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "chaos: %d kernels, seeds %v, faults %s, threads %d\n",
			len(kernel.All()), s.Seeds, s.Faults, threads)
	}
	if err := kernel.DifferentialChaos(kernel.Default, threads, s.Seeds, s.Faults); err != nil {
		return err
	}
	fmt.Fprintf(w, "chaos matrix ok: %d kernels x methods x {team} x {block, stealing} x %d seeds, faults=%s, threads=%d\n",
		len(kernel.All()), len(s.Seeds), s.Faults, threads)
	return nil
}

// writeHeapProfile dumps the live-heap profile after forcing a collection,
// so the numbers reflect retained allocations rather than garbage awaiting
// the next GC cycle.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create mem profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("write mem profile: %w", err)
	}
	return nil
}
