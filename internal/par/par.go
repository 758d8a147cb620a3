// Package par is the deterministic parallelism layer shared by the
// simulator's inner loops (per-core chip stepping, OD-RL local updates)
// and the experiment harness's outer loops (benchmark × controller,
// budget-point, core-count and seed fan-out).
//
// Determinism contract: every helper here dispatches a fixed index space
// [0, n) to a bounded worker pool, and callers write results only to
// index-addressed slots. Work items must not share mutable state, and any
// randomness a work item needs must come from a pre-split rng.RNG derived
// from the run seed *before* dispatch (see SplitRNGs). Under that contract
// the scheduling order is unobservable, so output with Workers=N is
// bit-identical to Workers=1 — the property the determinism regression
// tests pin down.
//
// The package is dependency-free (stdlib plus internal/rng) and allocates
// only the result slice and one small header per call.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Workers normalises a worker-count knob: values <= 0 mean DefaultWorkers,
// and the count is never larger than n (no idle goroutines).
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines. Indices are handed out dynamically (an atomic cursor), which
// balances uneven work items; fn must only write to state owned by index i.
// workers <= 0 means DefaultWorkers. With one worker (or n <= 1) everything
// runs inline on the calling goroutine.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachChunk splits [0, n) into at most workers contiguous chunks and
// runs fn(lo, hi) once per chunk. Chunking amortises dispatch overhead for
// cheap uniform items (per-core loops) and gives each worker a cache-local
// index range. fn must only write to state owned by indices in [lo, hi).
func ForEachChunk(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MapErr runs fn(i) for every i in [0, n) across at most workers
// goroutines. All items run regardless of failures elsewhere (no
// cancellation — work items are short and side-effect free under the
// package contract); the returned error is the one from the lowest failing
// index, so the error surfaced is independent of scheduling. The result
// slice always has n entries; entries whose fn failed hold the zero value.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(workers, n, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// SplitRNGs derives n independent child generators from base, in index
// order, before any parallel dispatch. Handing child i to work item i keeps
// the random stream each item consumes a pure function of (seed, i),
// independent of how items are scheduled across workers.
func SplitRNGs(base *rng.RNG, n int) []*rng.RNG {
	out := make([]*rng.RNG, n)
	for i := range out {
		out[i] = base.Split()
	}
	return out
}
