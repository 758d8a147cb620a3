package experiments

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// renderTable renders a figure to the exact bytes the CLIs print.
func renderTable(t *testing.T, tbl Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fullStack returns fresh instances of every observability layer, wired
// the way a CLI session wires them: the flight recorder teed with a
// tracer, the run-health monitor, the learn layer and the recorder's
// span ring.
func fullStack(t *testing.T) sim.Stack {
	tracer := obs.NewTracer(obs.NewWriterSink(io.Discard), obs.TracerOptions{Every: 7})
	t.Cleanup(func() { tracer.Close() })
	rec := flight.New(flight.Options{})
	return sim.Stack{
		Observer: rec.Wrap(tracer),
		Monitor:  monitor.New(monitor.Options{}),
		Learn:    learn.New(learn.Options{}),
		SpanSink: rec.Timeline(),
	}
}

// TestTablesByteIdenticalWithMonitoring is the figure-level read-only gate
// for the whole observability stack (tracer, monitor, learn layer, flight
// recorder): F1 and F18 must be deep-equal and render byte-identical with
// the stack off and on, sequential and parallel.
func TestTablesByteIdenticalWithMonitoring(t *testing.T) {
	cases := []struct {
		id  string
		run Runner
	}{
		{"F1", F1PowerTrace},
		{"F18", F18FaultIntensity},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				cfg := Config{Quick: true, Workers: workers}
				off, err := tc.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Stack = fullStack(t)
				on, err := tc.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(off, on) {
					t.Fatalf("%s diverges with the observability stack on at workers=%d", tc.id, workers)
				}
				if !bytes.Equal(renderTable(t, off), renderTable(t, on)) {
					t.Fatalf("%s rendered bytes diverge with the observability stack on at workers=%d", tc.id, workers)
				}
			}
		})
	}
}

// TestStackSeesEveryExperiment proves the wiring is complete: every
// experiment that runs through sim.Run reports to the Config's stack,
// including F18 and F19, which attach a monitor or learn layer of their
// own to each run. Under a fault plan every run carries the plan, except
// F18's, which sweeps its own.
func TestStackSeesEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fifteen experiments twice")
	}
	plan := fault.Scaled(0.5)
	for _, id := range []string{"F1", "F2", "F3", "F4", "F7", "F8", "F9", "F10", "F11", "F13", "F15", "F17", "F18", "F19"} {
		t.Run(id, func(t *testing.T) {
			run, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*fault.Plan{nil, &plan} {
				mon := monitor.New(monitor.Options{})
				if _, err := run(Config{Quick: true, FaultPlan: p, Stack: sim.Stack{Monitor: mon}}); err != nil {
					t.Fatal(err)
				}
				runs := mon.Runs()
				if len(runs) == 0 {
					t.Fatalf("%s recorded no monitored runs (fault plan %v)", id, p != nil)
				}
				if p == nil || id == "F18" {
					continue
				}
				for _, h := range runs {
					if h.Meta.FaultPlan != plan.ID() {
						t.Fatalf("%s run %d (%s) carries fault plan %q, want %q",
							id, h.ID, h.Meta.Controller, h.Meta.FaultPlan, plan.ID())
					}
				}
			}
		})
	}
}

// TestConcurrentStacksAreIsolated runs one experiment under two Configs
// with distinct monitors at the same time: each must see exactly its own
// runs, one per controller.
func TestConcurrentStacksAreIsolated(t *testing.T) {
	mons := []*monitor.Monitor{monitor.New(monitor.Options{}), monitor.New(monitor.Options{})}
	var wg sync.WaitGroup
	errs := make([]error, len(mons))
	for i, mon := range mons {
		wg.Add(1)
		go func(i int, mon *monitor.Monitor) {
			defer wg.Done()
			_, errs[i] = F1PowerTrace(Config{Quick: true, Workers: 2, Stack: sim.Stack{Monitor: mon}})
		}(i, mon)
	}
	wg.Wait()
	want := len(Default().Controllers)
	for i, mon := range mons {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := len(mon.Runs()); got != want {
			t.Fatalf("monitor %d saw %d runs, want its own %d", i, got, want)
		}
	}
}
