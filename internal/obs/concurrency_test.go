package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestRegistryConcurrentEmitters hammers get-or-create and recording from
// many goroutines; run under -race this is the registry's concurrency gate.
func TestRegistryConcurrentEmitters(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 16
		iters      = 500
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Shared names contend on get-or-create; per-goroutine names
				// exercise concurrent map growth.
				r.Counter("shared.ops").Inc()
				r.Counter(fmt.Sprintf("own.%d", g)).Add(2)
				r.Gauge("shared.gauge").Set(float64(i))
				h, err := r.Histogram("shared.hist", []float64{1, 10, 100})
				if err != nil {
					t.Error(err)
					return
				}
				h.Observe(float64(i % 128))
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()

	s := r.Snapshot()
	if got := s.Counters["shared.ops"]; got != goroutines*iters {
		t.Fatalf("shared.ops = %d, want %d", got, goroutines*iters)
	}
	for g := 0; g < goroutines; g++ {
		if got := s.Counters[fmt.Sprintf("own.%d", g)]; got != 2*iters {
			t.Fatalf("own.%d = %d, want %d", g, got, 2*iters)
		}
	}
	h := s.Histograms["shared.hist"]
	if h.Count != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count, goroutines*iters)
	}
	var bucketTotal int64
	for _, c := range h.Counts {
		bucketTotal += c
	}
	if bucketTotal != h.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, h.Count)
	}
}

// TestTracerParallelEmitters hammers one Tracer with concurrent runs, each
// emitting epochs from its own goroutine, plus concurrent emitters within a
// single run. The JSONL stream must stay parseable with exact per-run
// accounting.
func TestTracerParallelEmitters(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	tr := NewTracer(NewWriterSink(&buf), TracerOptions{Registry: reg})

	const (
		runs      = 8
		epochs    = 200
		observers = 4 // concurrent emitters sharing one run's observer
	)
	var wg sync.WaitGroup
	for rr := 0; rr < runs; rr++ {
		rr := rr
		wg.Add(1)
		go func() {
			defer wg.Done()
			ro := tr.BeginRun(RunMeta{Controller: "od-rl", Cores: 64, Seed: uint64(rr)})
			var ewg sync.WaitGroup
			for o := 0; o < observers; o++ {
				o := o
				ewg.Add(1)
				go func() {
					defer ewg.Done()
					for e := o; e < epochs; e += observers {
						if !ro.ShouldSample(e) {
							continue
						}
						ro.ObserveEpoch(&EpochEvent{Epoch: e, PowerW: 50, BudgetW: 55, DecideNs: 100})
					}
				}()
			}
			ewg.Wait()
			ro.End(metrics.Summary{})
		}()
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatalf("trace stream corrupted by concurrency: %v", err)
	}
	starts, ends := 0, 0
	sampledByRun := map[int64]int{}
	for _, rec := range recs {
		switch rec.Type {
		case "run_start":
			starts++
		case "epoch":
			sampledByRun[rec.Run]++
		case "run_end":
			ends++
			if rec.Epochs != epochs {
				t.Fatalf("run %d reports %d epochs, want %d", rec.Run, rec.Epochs, epochs)
			}
			if rec.Sampled != epochs {
				t.Fatalf("run %d reports %d sampled, want %d", rec.Run, rec.Sampled, epochs)
			}
			if got := sampledByRun[rec.Run]; got != epochs {
				t.Fatalf("run %d has %d epoch lines, want %d", rec.Run, got, epochs)
			}
		}
	}
	if starts != runs || ends != runs {
		t.Fatalf("got %d starts / %d ends, want %d each", starts, ends, runs)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["obs.trace.runs"]; got != runs {
		t.Fatalf("obs.trace.runs = %d, want %d", got, runs)
	}
	if got := snap.Counters["obs.trace.samples"]; got != runs*epochs {
		t.Fatalf("obs.trace.samples = %d, want %d", got, runs*epochs)
	}
}
