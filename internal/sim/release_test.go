package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it has held steady
// for 20 ms (at most 2 s), so workers of pools that earlier tests closed
// have exited before the count is read.
func settledGoroutines() int {
	n, steady := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); steady < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			steady++
		} else {
			n, steady = m, 0
		}
	}
	return n
}

// TestRunNamedReleasesWorkers: a 128-core od-rl run with two workers
// starts a worker pool in the chip and another in the controller. RunNamed
// must close both, so the goroutine count returns to its starting value.
// GC is off for the test, so a pool's finalizer cannot stand in for Close.
func TestRunNamedReleasesWorkers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := DefaultOptions()
	opts.Cores = 128
	opts.Workers = 2
	opts.WarmupS = 0.01
	opts.MeasureS = 0.02
	before := settledGoroutines()
	if _, err := RunNamed(opts, "od-rl"); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(); got != before {
		t.Fatalf("%d goroutines after the run, %d before", got, before)
	}
}
