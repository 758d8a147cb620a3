package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

func TestWorkersNormalisation(t *testing.T) {
	if got := Workers(0, 100); got != DefaultWorkers() {
		t.Fatalf("Workers(0,100) = %d, want %d", got, DefaultWorkers())
	}
	if got := Workers(-3, 100); got != DefaultWorkers() {
		t.Fatalf("Workers(-3,100) = %d, want %d", got, DefaultWorkers())
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8,3) = %d, want 3", got)
	}
	if got := Workers(8, 0); got != 1 {
		t.Fatalf("Workers(8,0) = %d, want 1", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachChunkCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 999
		var hits [n]atomic.Int32
		ForEachChunk(workers, n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("workers=%d: bad chunk [%d,%d)", workers, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	ForEach(4, 0, func(int) { called = true })
	ForEach(4, -5, func(int) { called = true })
	ForEachChunk(4, 0, func(int, int) { called = true })
	if called {
		t.Fatal("fn called for empty index space")
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 8} {
		out, err := MapErr(workers, 100, func(i int) (int, error) {
			switch i {
			case 7:
				return 0, errLow
			case 93:
				return 0, errHigh
			default:
				return i, nil
			}
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: err = %v, want lowest-index error", workers, err)
		}
		if len(out) != 100 || out[50] != 50 {
			t.Fatalf("workers=%d: successful results not preserved", workers)
		}
	}
}

func TestMapErrNoError(t *testing.T) {
	out, err := MapErr(4, 10, func(i int) (string, error) {
		return fmt.Sprintf("v%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("index %d = %q", i, v)
		}
	}
}

func TestSplitRNGsIndependentOfDispatch(t *testing.T) {
	// The streams handed to work items depend only on (seed, index): the
	// same derivation done twice yields identical children.
	a := SplitRNGs(rng.New(42), 16)
	b := SplitRNGs(rng.New(42), 16)
	for i := range a {
		for k := 0; k < 10; k++ {
			if a[i].Uint64() != b[i].Uint64() {
				t.Fatalf("child %d diverged at draw %d", i, k)
			}
		}
	}
}

// TestForEachParallelReduction exercises the canonical usage under -race:
// parallel workers write only index-addressed slots, the caller reduces
// sequentially afterwards, and the reduction matches the sequential run
// exactly (same float op order).
func TestForEachParallelReduction(t *testing.T) {
	const n = 4096
	vals := make([]float64, n)
	ForEach(8, n, func(i int) { vals[i] = 1.0 / float64(i+1) })
	sumPar := 0.0
	for _, v := range vals {
		sumPar += v
	}
	seq := make([]float64, n)
	for i := range seq {
		seq[i] = 1.0 / float64(i+1)
	}
	sumSeq := 0.0
	for _, v := range seq {
		sumSeq += v
	}
	if sumPar != sumSeq {
		t.Fatalf("parallel reduction %v != sequential %v", sumPar, sumSeq)
	}
}

func BenchmarkForEachChunkOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			buf := make([]float64, 1024)
			for i := 0; i < b.N; i++ {
				ForEachChunk(workers, len(buf), func(lo, hi int) {
					for j := lo; j < hi; j++ {
						buf[j] = float64(j)
					}
				})
			}
		})
	}
}
