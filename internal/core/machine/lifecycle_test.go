package machine_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"crcwpram/internal/core/chaos"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	evtrace "crcwpram/internal/core/trace"
)

// lifecycleOptions are the machine configurations the lifecycle tests
// cover: every option that attaches per-worker observability state.
var lifecycleOptions = []struct {
	name string
	opts func(p int) []machine.Option
}{
	{"bare", func(int) []machine.Option { return nil }},
	{"metrics", func(int) []machine.Option { return []machine.Option{machine.WithMetrics()} }},
	{"evtrace", func(p int) []machine.Option {
		return []machine.Option{machine.WithEventTrace(evtrace.New(p, 64))}
	}},
	{"chaos", func(p int) []machine.Option {
		return []machine.Option{machine.WithChaos(chaos.NewInjector(p, 1, chaos.AllFaults))}
	}},
}

// wantUseAfterClose runs f and fails unless it panics with the
// use-after-Close message.
func wantUseAfterClose(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		pv := recover()
		if pv == nil {
			t.Errorf("%s after Close did not panic", what)
			return
		}
		if !strings.Contains(fmt.Sprint(pv), "use after Close") {
			t.Errorf("%s after Close panicked with %v, want use after Close", what, pv)
		}
	}()
	f()
}

// helpers returns the ids of the machine helpers' goroutines — the ones
// New starts, each running (*Machine).helper — mapped to whether the
// helper is parked on a condition variable. A helper that has not run yet
// shows only its creator, so that is what identifies it.
func helpers() map[string]bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by crcwpram/internal/core/machine.New in ") {
			ids[strings.Fields(g)[1]] = strings.Contains(g, "sync.(*Cond).Wait")
		}
	}
	return ids
}

// TestCloseJoinsWorkers pins the lifecycle contract: Close returns only
// after every helper goroutine of the machine has exited — none is left
// right after Close, with no polling, whether the helpers were spinning or
// had parked — a second Close is a no-op, and every entry point refuses a
// closed machine. It counts the machine's own helpers, told apart from
// other goroutines by their ids, so a goroutine of an earlier test that
// exits meanwhile cannot move the count.
func TestCloseJoinsWorkers(t *testing.T) {
	// On one P a goroutine's exit runs to completion before the scheduler
	// switches to the goroutine its last act woke, so the helpers read
	// right after Close are exact. With several Ps a helper that has
	// already signalled Close can still be retiring on another P when
	// Close's caller resumes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, p := range []int{1, 2, 4} {
		for _, lo := range lifecycleOptions {
			for _, idle := range []bool{false, true} {
				name := fmt.Sprintf("p=%d %s idle=%v", p, lo.name, idle)
				before := helpers()
				m := machine.New(p, lo.opts(p)...)
				var own []string
				for id := range helpers() {
					if _, old := before[id]; !old {
						own = append(own, id)
					}
				}
				if len(own) != p-1 {
					t.Errorf("%s: New started %d helpers, want %d", name, len(own), p-1)
				}
				m.ParallelFor(100, func(int) {})
				m.Team(func(tc *machine.TeamCtx) { tc.For(100, func(int) {}) })
				// Idle: wait until every helper has spun, yielded and
				// parked at the region barrier's start phase.
				for deadline := time.Now().Add(10 * time.Second); idle; time.Sleep(time.Millisecond) {
					hs, n := helpers(), 0
					for _, id := range own {
						if hs[id] {
							n++
						}
					}
					if n == len(own) {
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("%s: %d of %d helpers parked after 10s idle", name, n, len(own))
						break
					}
				}
				m.Close()
				hs := helpers()
				for _, id := range own {
					if _, alive := hs[id]; alive {
						t.Errorf("%s: helper goroutine %s alive right after Close", name, id)
					}
				}
				m.Close() // double Close is a no-op
				wantUseAfterClose(t, "ParallelFor", func() { m.ParallelFor(1, func(int) {}) })
				wantUseAfterClose(t, "Team", func() { m.Team(func(*machine.TeamCtx) {}) })
				for _, e := range []machine.Exec{machine.ExecTeam, machine.ExecTrace} {
					wantUseAfterClose(t, "exec.Run "+e.String(), func() { exec.Run(m, e, func(exec.Ctx) {}) })
				}
			}
		}
	}
}

// goid returns the calling goroutine's id, read from the "goroutine N
// [running]:" header of its stack trace.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestCallerIsWorkerZero pins the machine's goroutine shape: New(p) starts
// exactly p-1 helper goroutines, and worker 0 of every region runs on the
// calling goroutine — the Team body, the w == 0 body of ParallelForWorker
// and the Worker() == 0 copy of an exec.Run body — while workers 1..p-1
// each run on a helper of their own.
func TestCallerIsWorkerZero(t *testing.T) {
	// One P keeps the goroutine count exact, as in TestCloseJoinsWorkers;
	// the yield lets helpers of earlier tests finish retiring first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.Gosched()
	caller := goid()
	for _, p := range []int{1, 2, 4} {
		g0 := runtime.NumGoroutine()
		m := machine.New(p)
		if g := runtime.NumGoroutine(); g != g0+p-1 {
			t.Errorf("p=%d: New added %d goroutines, want %d", p, g-g0, p-1)
		}
		// Each worker writes only its own slot; the region's end phase
		// publishes the slots to the caller.
		check := func(what string, ids []string) {
			t.Helper()
			seen := map[string]int{}
			for w, id := range ids {
				if (id == caller) != (w == 0) {
					t.Errorf("p=%d %s: worker %d ran on goroutine %s, caller is %s", p, what, w, id, caller)
				}
				if v, dup := seen[id]; dup {
					t.Errorf("p=%d %s: workers %d and %d share goroutine %s", p, what, v, w, id)
				}
				seen[id] = w
			}
		}
		ids := make([]string, p)
		m.Team(func(tc *machine.TeamCtx) { ids[tc.W] = goid() })
		check("Team", ids)
		ids = make([]string, p)
		m.ParallelForWorker(p, func(_, w int) { ids[w] = goid() })
		check("ParallelForWorker", ids)
		var zero string
		exec.Run(m, machine.ExecTeam, func(c exec.Ctx) {
			if c.Worker() == 0 {
				zero = goid()
			}
		})
		if zero != caller {
			t.Errorf("p=%d exec.Run: Worker() == 0 ran on goroutine %s, caller is %s", p, zero, caller)
		}
		m.Close()
	}
}

// TestCallerKeepsProfileLabels checks that running regions does not strip
// the caller's pprof labels. The helpers take "round-phase" labels under
// metrics, but pprof.Do restores the labels of the context it is given, so
// worker 0 must run its share and its end-phase wait unwrapped. The
// machines are built outside the labelled scope and closed before the
// goroutine profile is read, so no helper can carry the probe label.
func TestCallerKeepsProfileLabels(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  machine.Option
	}{
		{"metrics", machine.WithMetrics()},
		{"evtrace", machine.WithEventTrace(evtrace.New(2, 64))},
	} {
		m := machine.New(2, c.opt)
		var buf bytes.Buffer
		pprof.Do(context.Background(), pprof.Labels("probe", "caller"), func(context.Context) {
			m.ParallelFor(100, func(int) {})
			m.Team(func(tc *machine.TeamCtx) { tc.For(100, func(int) {}) })
			m.Close()
			if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
				t.Fatal(err)
			}
		})
		if !strings.Contains(buf.String(), `"probe":"caller"`) {
			t.Errorf("%s: the caller lost its profile labels after running regions", c.name)
		}
	}
}

// TestEndPhaseRecordsLandBeforeReturn checks that a region returns only
// after every helper has recorded its end-phase wait, which it does after
// the barrier has released it: a timeline drained right after each region
// holds one end-phase barrier span per worker.
func TestEndPhaseRecordsLandBeforeReturn(t *testing.T) {
	for _, p := range []int{2, 4} {
		rec := evtrace.New(p, 16)
		m := machine.New(p, machine.WithEventTrace(rec))
		for r := 0; r < 500; r++ {
			m.ParallelFor(p, func(int) {})
			n := 0
			for _, ev := range rec.Drain().Spans {
				if ev.Kind == evtrace.KindBarrier {
					n++
				}
			}
			rec.Reset()
			if n != p {
				t.Errorf("p=%d region %d: drained %d end-phase barrier spans, want %d", p, r, n, p)
				break
			}
		}
		m.Close()
	}
}
