package toposearch_test

import (
	"runtime"
	"testing"
	"time"
)

// goroutineBaseline snapshots the current goroutine count for a later
// assertNoGoroutineLeak. Use as:
//
//	defer assertNoGoroutineLeak(t, goroutineBaseline())
//
// at the top of a test, before any engine object is built.
func goroutineBaseline() int { return runtime.NumGoroutine() }

// assertNoGoroutineLeak fails the test when goroutines outlive the
// engine work that spawned them. Worker pools, scan window workers and
// cache fills all terminate on their own; the count is polled with a
// grace period because goroutines that have signalled completion can
// legitimately take a few scheduler rounds to unwind.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for {
		n = runtime.NumGoroutine()
		// A small tolerance absorbs runtime-internal goroutines (GC
		// workers, timer scavenger) that come and go on their own.
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutine leak: %d running, baseline %d\n%s",
		n, baseline, buf[:runtime.Stack(buf, true)])
}
