package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/kernel"
)

// The load model: one client in a closed loop, one iteration being
// Prepare, the timed Run, then the output check. Each workload's timed
// budget is cut into slices, and every slice rebuilds its input and
// machine from scratch so that set-up is sampled as often as the loop.
const (
	// slices is the number of fresh machines, each on its own input, per
	// workload. A machine's workers settle into one of a few scheduling
	// modes for its lifetime (P workers and the spinning caller share P
	// CPUs), so one slice's median is one draw of that mode: the median
	// over many short slices is steady where that of a few long ones is
	// not.
	slices = 40
	// warmups is the number of untimed runs after each slice's first one.
	warmups = 1
	// layerGaps is the number of gaps between slices that carry the
	// per-layer measurements, spread evenly over the run.
	layerGaps = 10
	// rungReps is the minimum repetition count of each ladder rung, spread
	// over the layer gaps.
	rungReps = 31
	// tracedShare is the traced pass's length as a share of the timed
	// budget.
	tracedShare = 0.15
)

// config is one benchmark invocation.
type config struct {
	seed int64
	// seconds is each workload's timed budget, split over the slices.
	seconds float64
	// layers adds the per-layer measurements: rungs between slices, the
	// serial replays and the traced pass.
	layers bool
	// smoke shrinks the rung repetitions to one per gap, for tests.
	smoke bool
	// wrap, when set, wraps every kernel instance (tests inject faults and
	// delays through it).
	wrap func(kernel.Instance) kernel.Instance
}

// repsPerGap spreads rungReps repetitions over the layer gaps.
func (c config) repsPerGap() int {
	if c.smoke {
		return 1
	}
	return (rungReps + layerGaps - 1) / layerGaps
}

// layerGap reports whether the gap after slice k carries the per-layer
// measurements.
func layerGap(k int) bool { return (k+1)%(slices/layerGaps) == 0 }

// state accumulates one workload's samples across its slices.
type state struct {
	w *workload
	d *kernel.Descriptor

	run, prep []float64 // ms per timed iteration
	attempted int
	failed    int

	// Per slice: the median Run (ms), the iterations per second of
	// Prepare+Run time, and the process CPU time per iteration (ms).
	sliceP50, sliceRate, sliceCPU []float64

	setup, gen, kernelNew, heap []float64 // per slice: s, ms, ms, MB

	// Per-layer samples.
	serial  []float64        // ms per trace-backend replay
	trace   *exec.TraceStats // one replay's structure
	paired  [3][]float64     // ms per run: bare, metrics, event-traced machine
	allocKB []float64        // heap KB allocated per Run on the bare machine
	allocs  []float64        // heap objects allocated per Run on the bare machine
	spans   []float64        // flight-recorder events per run
	dropped []float64        // flight-recorder events lost per run
	traced  *tracedPass
}

// bench runs a set of workloads under one configuration.
type bench struct {
	cfg    config
	p      int
	states []*state
	rungs  *rungs
	spans  *spanLog
}

func newBench(cfg config, ws []*workload) *bench {
	b := &bench{cfg: cfg, p: runtime.NumCPU(), rungs: newRungs(), spans: newSpanLog()}
	for _, w := range ws {
		b.states = append(b.states, &state{w: w, d: w.descriptor()})
	}
	return b
}

// run measures every workload: the slices round-robin across workloads,
// with the per-layer measurements in the layer gaps, then one traced pass
// per workload.
func (b *bench) run() error {
	budget := time.Duration(b.cfg.seconds / slices * float64(time.Second))
	for k := 0; k < slices; k++ {
		layers := b.cfg.layers && layerGap(k)
		for _, st := range b.states {
			if err := b.slice(st, k, budget, layers); err != nil {
				return err
			}
			if layers {
				if err := b.pairs(st, k); err != nil {
					return err
				}
			}
		}
		if layers {
			if err := b.rungs.measure(b.p, b.cfg.repsPerGap()); err != nil {
				return err
			}
		}
	}
	if !b.cfg.layers {
		return nil
	}
	traced := time.Duration(tracedShare * b.cfg.seconds * float64(time.Second))
	for _, st := range b.states {
		tp, err := b.runTraced(st, traced)
		if err != nil {
			return err
		}
		st.traced = tp
	}
	return nil
}

// slice is one fresh machine and input: set-up to the first validated
// result, a warm-up, then the timed closed loop for budget. With layers
// on, the serial replays run on the slice's machine before it is closed.
func (b *bench) slice(st *state, k int, budget time.Duration, layers bool) error {
	g0 := runtime.NumGoroutine()
	heap0 := liveHeap()

	t0 := time.Now()
	wl := st.w.gen(b.inputSeed(k))
	t1 := time.Now()
	m := machine.New(b.p, st.w.options(b.p)...)
	t2 := time.Now()
	in := b.instance(st.d, m, wl)
	t3 := time.Now()
	s := st.w.settings(m)
	in.Prepare(s)
	check := checker{st.d, st.d.Projection(in.Run(s))}
	setup := time.Since(t0)
	if err := in.Validate(); err != nil {
		m.Close()
		return fmt.Errorf("%s: first run of the slice fails validation: %w", st.w.name, err)
	}
	st.setup = append(st.setup, setup.Seconds())
	st.gen = append(st.gen, ms(t1.Sub(t0)))
	st.kernelNew = append(st.kernelNew, ms(t3.Sub(t2)))
	st.heap = append(st.heap, float64(liveHeap()-heap0)/1e6)

	for i := 0; i < warmups; i++ {
		in.Prepare(s)
		in.Run(s)
	}
	m.Events().Reset()

	first := len(st.run)
	cpu0 := cpuTime()
	for start := time.Now(); ; {
		tp := time.Now()
		in.Prepare(s)
		tr := time.Now()
		out := in.Run(s)
		te := time.Now()
		st.prep = append(st.prep, ms(tr.Sub(tp)))
		st.run = append(st.run, ms(te.Sub(tr)))
		st.attempted++
		if !check.same(out) {
			st.failed++
		}
		m.Events().Reset()
		if time.Since(start) >= budget {
			break
		}
	}
	cpu := cpuTime() - cpu0
	runs, preps := st.run[first:], st.prep[first:]
	n := float64(len(runs))
	st.sliceP50 = append(st.sliceP50, median(runs))
	st.sliceRate = append(st.sliceRate, n/(sum(runs)+sum(preps))*1e3)
	st.sliceCPU = append(st.sliceCPU, float64(cpu)/1e6/n)

	if layers {
		b.replay(st, m, in)
	}
	m.Close()
	return settle(st.w.name, g0)
}

// replay times the kernel under the serial trace backend — the compute
// rung — and keeps one replay's structural counts.
func (b *bench) replay(st *state, m *machine.Machine, in kernel.Instance) {
	s := st.w.settings(m)
	s.Exec = machine.ExecTrace // the counting replay, not a timed backend
	for i := 0; i < b.cfg.repsPerGap(); i++ {
		in.Prepare(s)
		t := time.Now()
		in.Run(s)
		st.serial = append(st.serial, ms(time.Since(t)))
	}
	st.trace = in.Trace()
}

// inputSeed derives slice k's input seed from the run's seed, so that one
// seed always yields the same inputs and the slices of a run see different
// ones.
func (b *bench) inputSeed(k int) int64 { return b.cfg.seed*slices + int64(k) }

func (b *bench) instance(d *kernel.Descriptor, m *machine.Machine, wl kernel.Workload) kernel.Instance {
	in := d.New(m, wl)
	if b.cfg.wrap != nil {
		in = b.cfg.wrap(in)
	}
	return in
}

// settle checks that a closed machine released its workers: after a GC,
// the goroutine count must return to its value before the slice.
func settle(name string, g0 int) error {
	runtime.GC()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > g0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %d goroutines alive after Close, %d before the slice", name, runtime.NumGoroutine(), g0)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// liveHeap returns the live heap in bytes, measured after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime returns the process's user plus system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEndReport fills a report's end-to-end metrics from the untraced
// slices. Interference from other tenants comes in bursts that hit some
// slices and spare others, so the per-slice statistics are aggregated by
// their median; the p90 pools every run, to keep ten or more beyond it.
func (st *state) endToEndReport() *report {
	r := &report{workload: st.w.name, attempted: st.attempted, failed: st.failed, values: map[string]value{}}
	slicesNote := fmt.Sprintf("median of %d slices, %d runs", len(st.setup), len(st.run))
	r.set("run_ms_p50", median(st.sliceP50), slicesNote)
	r.set("run_ms_p90", quantile(st.run, 0.9), fmt.Sprintf("n=%d, %d beyond", len(st.run), len(st.run)/10))
	r.set("runs_per_s", median(st.sliceRate), slicesNote)
	r.set("cpu_ms_per_run", median(st.sliceCPU), slicesNote)
	r.set("setup_s", median(st.setup), fmt.Sprintf("median of %d slices", len(st.setup)))
	r.set("heap_mb", median(st.heap), fmt.Sprintf("median of %d slices", len(st.heap)))
	r.extra = append(r.extra, fmt.Sprintf("%-34s %s ms", "run_ms_p50 by slice", strings.Trim(fmt.Sprintf("%.4g", st.sliceP50), "[]")))
	r.set("ok_ratio", ratio(float64(st.attempted-st.failed), float64(st.attempted)), fmt.Sprintf("%d of %d runs failed the output check", st.failed, st.attempted))
	return r
}
