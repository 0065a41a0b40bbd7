package machine_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

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

// TestCloseJoinsWorkers pins the lifecycle contract: Close returns only
// after every worker goroutine has exited — the goroutine count is back
// to its value before New with no polling — a second Close is a no-op,
// and every entry point refuses a closed machine.
func TestCloseJoinsWorkers(t *testing.T) {
	// On one P a goroutine's exit runs to completion before the scheduler
	// switches to the goroutine its last act woke, so the count read right
	// after Close is exact. With several Ps a worker that has already
	// signalled Close can still be retiring on another P when Close's
	// caller resumes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, p := range []int{1, 2, 4} {
		for _, lo := range lifecycleOptions {
			g0 := runtime.NumGoroutine()
			m := machine.New(p, lo.opts(p)...)
			m.ParallelFor(100, func(int) {})
			m.Team(func(tc *machine.TeamCtx) { tc.For(100, func(int) {}) })
			m.Close()
			if g := runtime.NumGoroutine(); g != g0 {
				t.Errorf("p=%d %s: %d goroutines right after Close, %d before New", p, lo.name, g, g0)
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

// TestOneWorkerStartsNoGoroutine checks that a one-worker machine runs
// everything on its caller: New(1) starts no worker goroutine.
func TestOneWorkerStartsNoGoroutine(t *testing.T) {
	g0 := runtime.NumGoroutine()
	m := machine.New(1)
	defer m.Close()
	if g := runtime.NumGoroutine(); g != g0 {
		t.Fatalf("New(1) changed the goroutine count from %d to %d", g0, g)
	}
	ran := 0
	m.ParallelFor(10, func(int) { ran++ })
	if ran != 10 {
		t.Fatalf("inline ParallelFor ran %d iterations, want 10", ran)
	}
}
