package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"crcwpram/internal/core/machine"
	crcwmetrics "crcwpram/internal/core/metrics"
	evtrace "crcwpram/internal/core/trace"
)

// Machine variants of the paired overhead runs, in index order of
// state.paired.
const (
	bare = iota
	withMetrics
	withEvents
)

func variantOptions(v, p int) []machine.Option {
	switch v {
	case withMetrics:
		return []machine.Option{machine.WithMetrics()}
	case withEvents:
		return []machine.Option{machine.WithEventTrace(evtrace.New(p, evtrace.DefaultCap))}
	}
	return nil
}

// Each block of paired runs lasts at least pairedRuns runs and pairedTime.
const (
	pairedRuns = 3
	pairedTime = 50 * time.Millisecond
)

// pairs runs one block of the workload's kernel on a bare, a metrics and
// an event-traced machine, one machine alive at a time, rotating the
// order each gap. The bare block also reads the kernel's own allocations
// around each Run; the event-traced block drains the flight recorder after
// each run.
func (b *bench) pairs(st *state, gap int) error {
	wl := st.w.gen(b.inputSeed(gap))
	var heap allocCounter
	for i := 0; i < 3; i++ {
		v := (gap + i) % 3
		g0 := runtime.NumGoroutine()
		m := machine.New(b.p, variantOptions(v, b.p)...)
		in := b.instance(st.d, m, wl)
		s := st.w.settings(m)
		in.Prepare(s)
		in.Run(s)
		m.Events().Reset()
		for n, start := 0, time.Now(); n < pairedRuns || time.Since(start) < pairedTime; n++ {
			in.Prepare(s)
			bytes0, objs0 := heap.read()
			t := time.Now()
			in.Run(s)
			st.paired[v] = append(st.paired[v], ms(time.Since(t)))
			if v == bare {
				bytes1, objs1 := heap.read()
				st.allocKB = append(st.allocKB, float64(bytes1-bytes0)/1e3)
				st.allocs = append(st.allocs, float64(objs1-objs0))
			}
			if ev := m.Events(); ev != nil {
				tl := ev.Drain()
				st.spans = append(st.spans, float64(len(tl.Spans)))
				st.dropped = append(st.dropped, float64(tl.Dropped))
				ev.Reset()
			}
		}
		m.Close()
		if err := settle(st.w.name, g0); err != nil {
			return err
		}
	}
	return nil
}

// allocCounter reads the runtime's cumulative heap allocation totals.
type allocCounter [2]metrics.Sample

func (a *allocCounter) read() (bytes, objects uint64) {
	a[0].Name, a[1].Name = "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"
	metrics.Read(a[:])
	return a[0].Value.Uint64(), a[1].Value.Uint64()
}

// tracedPass holds the per-run counts of a workload's traced pass.
type tracedPass struct {
	attempted, failed int

	run                             []float64 // ms per timed Run
	attempts, wins, skips, rounds   []float64
	busyMs, waitMs, roundMs         []float64
	busyShare, busyImbalance        []float64
	steals, stealFails, chunksLocal []float64
	allocKB, allocs                 []float64
}

// runTraced runs the workload for d on a metrics machine, recording a
// span around every call into a layer and reading the machine's counters
// and the runtime's allocation totals at the same boundaries.
func (b *bench) runTraced(st *state, d time.Duration) (*tracedPass, error) {
	sp := b.spans
	g0 := runtime.NumGoroutine()
	root := sp.begin("setup", 0)
	id := sp.begin("graph.gen", root)
	wl := st.w.gen(b.inputSeed(0))
	sp.end(id)
	id = sp.begin("machine.new", root)
	m := machine.New(b.p, append(st.w.options(b.p), machine.WithMetrics())...)
	sp.end(id)
	id = sp.begin("kernel.new", root)
	in := b.instance(st.d, m, wl)
	sp.end(id)
	s := st.w.settings(m)
	id = sp.begin("kernel.prepare", root)
	in.Prepare(s)
	sp.end(id)
	id = sp.begin("kernel.run", root)
	check := checker{st.d, st.d.Projection(in.Run(s))}
	sp.end(id)
	id = sp.begin("kernel.validate", root)
	err := in.Validate()
	sp.end(id)
	sp.end(root)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: traced pass fails validation: %w", st.w.name, err)
	}
	for i := 0; i < warmups; i++ {
		in.Prepare(s)
		in.Run(s)
	}

	tp := &tracedPass{}
	rec := m.Metrics()
	var heap allocCounter
	for start := time.Now(); ; {
		it := sp.begin("iteration", 0)
		id = sp.begin("kernel.prepare", it)
		in.Prepare(s)
		sp.end(id)
		rec.Reset()
		m.Events().Reset()
		bytes0, objs0 := heap.read()
		id = sp.begin("kernel.run", it)
		t := time.Now()
		out := in.Run(s)
		tp.run = append(tp.run, ms(time.Since(t)))
		sp.end(id)
		bytes1, objs1 := heap.read()
		tp.allocKB = append(tp.allocKB, float64(bytes1-bytes0)/1e3)
		tp.allocs = append(tp.allocs, float64(objs1-objs0))
		tp.add(m.Snapshot())
		id = sp.begin("bench.check", it)
		if !check.same(out) {
			tp.failed++
		}
		tp.attempted++
		sp.end(id)
		sp.end(it)
		if time.Since(start) >= d {
			break
		}
	}
	m.Close()
	return tp, settle(st.w.name, g0)
}

// add records one run's machine counters.
func (tp *tracedPass) add(s crcwmetrics.Snapshot) {
	tp.attempts = append(tp.attempts, float64(s.CASAttempts))
	tp.wins = append(tp.wins, float64(s.CASWins))
	tp.skips = append(tp.skips, float64(s.PrecheckSkips))
	tp.rounds = append(tp.rounds, float64(s.Rounds))
	tp.busyMs = append(tp.busyMs, float64(s.BusyNs)/1e6)
	tp.waitMs = append(tp.waitMs, float64(s.BarrierWaitNs)/1e6)
	tp.roundMs = append(tp.roundMs, float64(s.RoundNs)/1e6)
	tp.busyShare = append(tp.busyShare, ratio(float64(s.BusyNs), float64(s.BusyNs+s.BarrierWaitNs)))
	var maxBusy int64
	for _, v := range s.WorkerBusyNs {
		maxBusy = max(maxBusy, v)
	}
	tp.busyImbalance = append(tp.busyImbalance, ratio(float64(maxBusy)*float64(len(s.WorkerBusyNs)), float64(s.BusyNs)))
	tp.steals = append(tp.steals, float64(s.Steals))
	tp.stealFails = append(tp.stealFails, float64(s.StealFails))
	tp.chunksLocal = append(tp.chunksLocal, float64(s.ChunksLocal))
}

// span is one recorded interval of the benchmark's own calls into a layer.
// Times are ns since the span log's epoch; parent 0 is none.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(l.epoch))})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = int64(time.Since(l.epoch)) }

// selfTimes returns each span name's total self time: its spans'
// durations minus the parts their children cover.
func (l *spanLog) selfTimes() map[string]int64 {
	self := map[string]int64{}
	for _, s := range l.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent != 0 {
			p := l.spans[s.Parent-1]
			self[p.Name] -= s.End - s.Start
		}
	}
	return self
}

// write saves the spans and the per-name self times as JSON.
func (l *spanLog) write(path string) error {
	b, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		SelfNs map[string]int64 `json:"self_ns"`
	}{l.spans, l.selfTimes()})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
