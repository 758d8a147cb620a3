package obs

import (
	"testing"
)

// sinkRun mirrors the harness's per-epoch observer gate so the benchmarks
// measure exactly what sim.Run pays.
var benchSampled int

// BenchmarkObsDisabledHotPath is the satellite-task guarantee: with
// tracing disabled (the Nop observer — same gate shape as a decimated
// miss), the per-epoch cost of the observability hook must stay below
// 5 ns. CI runs this with -benchtime=1x as a compile-and-run check; run
// it normally to see the real figure.
func BenchmarkObsDisabledHotPath(b *testing.B) {
	run := Nop().BeginRun(RunMeta{})
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if run.ShouldSample(i) {
			n++
		}
	}
	benchSampled = n
}

// BenchmarkObsDecimatedMiss measures a real tracer's off-stride epochs —
// the common case on a decimated long run.
func BenchmarkObsDecimatedMiss(b *testing.B) {
	tr := NewTracer(NewWriterSink(discard{}), TracerOptions{Every: 1 << 30})
	run := tr.BeginRun(RunMeta{})
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if run.ShouldSample(i + 1) { // never hits epoch 0's on-stride slot
			n++
		}
	}
	benchSampled = n
}

// BenchmarkObsCounterInc measures the registry's hot recording path.
func BenchmarkObsCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsSketchObserve measures the registry sketch's recording path
// (the tracer's decide-latency metric) with every benchmark goroutine
// contending on its lock.
func BenchmarkObsSketchObserve(b *testing.B) {
	sk := NewRegistry().Sketch("bench")
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			sk.Observe(float64(i % 1000000))
		}
	})
}

// BenchmarkObsTracerSampled measures the full emit path (marshal + sink)
// for one sampled epoch, the upper bound a traced run pays per sample.
func BenchmarkObsTracerSampled(b *testing.B) {
	tr := NewTracer(NewWriterSink(discard{}), TracerOptions{})
	run := tr.BeginRun(RunMeta{Controller: "bench"})
	ev := EpochEvent{
		Epoch: 1, TimeS: 0.001, PowerW: 88, BudgetW: 90, MaxTempK: 330,
		IslandPowerW: []float64{22, 22, 22, 22},
		LevelHist:    []int{8, 8, 8, 8, 8, 8, 8, 8},
		DecideNs:     12345,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.ObserveEpoch(&ev)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
