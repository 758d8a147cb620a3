package sim

import (
	"repro/internal/manycore"
	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
)

// Stack is one session's observability layers. Every run built with it
// reports to the same layers, and nothing else does: sessions never share
// a stack unless they pass the same one. The zero value observes nothing
// and costs one branch per epoch. Every layer is strictly read-only:
// simulation results are bit-identical with any of them on or off.
type Stack struct {
	// Observer receives structured epoch events for the measurement window
	// (see package obs).
	Observer obs.Observer
	// Monitor tees the run-health layer (time series, quantile sketches,
	// alert rules, live HTTP views; see package obs/monitor) in after
	// Observer, which takes its alerts, and streams controller phase spans
	// into its timeline.
	Monitor *monitor.Monitor
	// Learn attaches the learning-introspection layer (see package
	// obs/learn) to controllers that stream learning samples
	// (ctrl.LearnStreamer): per-agent TD-error/churn/coverage telemetry,
	// online convergence detection and optional policy snapshots.
	// Controllers without learning stream nothing.
	Learn *learn.Layer
	// SpanSink additionally receives the controller's phase spans (teed
	// with the monitor's timeline when both are present); the flight
	// recorder's post-mortem ring attaches here.
	SpanSink obs.SpanSink
}

// eventScratch holds the reusable per-sample aggregation buffers for one
// run's epoch events, so sampling allocates nothing after the first epoch.
type eventScratch struct {
	islands []float64
	hist    []int
	// islandOf maps core index to island index, computed once so the
	// per-epoch fill is a table lookup instead of four integer divisions
	// per core (fill runs every sampled epoch, and a monitor samples all
	// of them).
	islandOf []int32
}

// newEventScratch sizes buffers from the chip configuration. With per-core
// DVFS (island size 0) the whole chip aggregates into one island entry.
func newEventScratch(cfg manycore.Config) *eventScratch {
	s := &eventScratch{}
	nIslands := 1
	cores := cfg.Width * cfg.Height
	s.islandOf = make([]int32, cores)
	if cfg.IslandW > 0 && cfg.IslandH > 0 {
		islandsPerRow := cfg.Width / cfg.IslandW
		nIslands = islandsPerRow * (cfg.Height / cfg.IslandH)
		for i := 0; i < cores; i++ {
			x, y := i%cfg.Width, i/cfg.Width
			s.islandOf[i] = int32((y/cfg.IslandH)*islandsPerRow + x/cfg.IslandW)
		}
	}
	s.islands = make([]float64, nIslands)
	s.hist = make([]int, cfg.VF.Levels())
	return s
}

// fill populates the event's island-power and VF-level histogram from this
// epoch's telemetry, reusing the scratch buffers (the observer contract
// forbids retaining them).
//
//odrl:hotpath
func (s *eventScratch) fill(ev *obs.EpochEvent, tel *manycore.Telemetry) {
	for i := range s.islands {
		s.islands[i] = 0
	}
	for i := range s.hist {
		s.hist[i] = 0
	}
	ips := 0.0
	for i := range tel.Cores {
		ct := &tel.Cores[i]
		if ct.Level >= 0 && ct.Level < len(s.hist) {
			s.hist[ct.Level]++
		}
		s.islands[s.islandOf[i]] += ct.PowerW
		ips += ct.IPS
	}
	ev.IslandPowerW = s.islands
	ev.LevelHist = s.hist
	ev.IPS = ips
}

// fillLight populates only the scalar aggregate (chip IPS), for sampled
// epochs whose observer declined detail via obs.EpochDetailSampler — the
// run-health monitor's every-epoch path.
//
//odrl:hotpath
func (s *eventScratch) fillLight(ev *obs.EpochEvent, tel *manycore.Telemetry) {
	ips := 0.0
	for i := range tel.Cores {
		ips += tel.Cores[i].IPS
	}
	ev.IPS = ips
}
