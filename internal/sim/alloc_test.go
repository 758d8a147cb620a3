package sim

import (
	"runtime"
	"testing"

	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
)

// mallocsDuring returns the number of heap allocations performed while f
// runs. A GC beforehand settles any pending finalizer work so stale
// garbage from earlier tests cannot bleed into the count.
func mallocsDuring(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocRun executes one sequential run of the named controller with
// monitoring and learning introspection attached — the full observability
// stack a production run carries — and returns how many heap allocations
// it made.
func allocRun(t *testing.T, name string, measureS float64) uint64 {
	t.Helper()
	opts := DefaultOptions()
	opts.Cores = 16
	opts.Workers = 1
	opts.WarmupS = 0.05
	opts.MeasureS = measureS
	opts.TracePoints = 0
	opts.Monitor = monitor.New(monitor.Options{})
	opts.Learn = learn.New(learn.Options{})

	env, err := EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(name, env)
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	n := mallocsDuring(func() {
		_, runErr = Run(opts, c)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return n
}

// TestRunSteadyStateZeroAlloc is the allocation-regression gate for the
// epoch loop: two runs that differ only in length are measured, so all
// setup cost (chip construction, LUTs, observer registration, result
// buffers) cancels in the difference and the quotient is the steady-state
// per-epoch allocation rate. The epoch kernel, the decide path of OD-RL
// and of the two knapsack-style baselines, and the monitor + learn
// observers together must allocate nothing per epoch; the threshold of
// 0.05 allocs/epoch leaves room only for amortized slice growth inside the
// observers' time-series stores.
//
// testing.AllocsPerRun is deliberately not used: it averages whole
// invocations of Run, so chip construction would swamp the per-epoch
// signal it is supposed to detect. Differencing two run lengths is the
// same measurement with the setup term subtracted out.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation measurement needs the long run")
	}

	const shortS, longS = 0.2, 1.2
	opts := DefaultOptions()
	opts.EpochS = 1e-3 // pin the epoch length the arithmetic below assumes
	extraEpochs := int((longS - shortS) / opts.EpochS)

	for _, name := range []string{"od-rl", "maxbips", "steepest-drop"} {
		t.Run(name, func(t *testing.T) {
			// Warm once so lazily-initialised package state (controller
			// registry, observer metadata) is counted by neither
			// measured run.
			allocRun(t, name, shortS)

			short := allocRun(t, name, shortS)
			long := allocRun(t, name, longS)

			var perEpoch float64
			if long > short {
				perEpoch = float64(long-short) / float64(extraEpochs)
			}
			t.Logf("allocs: short=%d long=%d over %d extra epochs => %.4f allocs/epoch",
				short, long, extraEpochs, perEpoch)
			if perEpoch > 0.05 {
				t.Fatalf("steady-state epoch loop allocates %.4f allocs/epoch (short=%d long=%d); want ~0",
					perEpoch, short, long)
			}
		})
	}
}
