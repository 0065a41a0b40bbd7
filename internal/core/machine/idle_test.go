//go:build unix

package machine_test

import (
	"syscall"
	"testing"
	"time"

	"crcwpram/internal/core/machine"
)

// cpuTime returns the CPU time the process has used, user and system.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleMachineSleeps checks that a machine idle between regions costs
// no CPU: its helpers spin, yield and then park within about a
// millisecond, so while the caller sleeps 200 ms the process uses less
// than 5% of one CPU.
func TestIdleMachineSleeps(t *testing.T) {
	const window = 200 * time.Millisecond
	for _, p := range []int{2, 4} {
		m := machine.New(p)
		m.ParallelFor(p, func(int) {})
		time.Sleep(20 * time.Millisecond) // long past the spin and yield phases
		c0 := cpuTime(t)
		time.Sleep(window)
		used := cpuTime(t) - c0
		m.Close()
		t.Logf("p=%d: %v of CPU in %v idle", p, used, window)
		if used > window/20 {
			t.Errorf("p=%d: an idle machine used %v of CPU in %v, want under %v", p, used, window, window/20)
		}
	}
}
