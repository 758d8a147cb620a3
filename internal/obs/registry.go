// Package obs is the zero-dependency observability layer for the
// simulation harness: a metrics registry (atomic counters and gauges,
// locked quantile sketches), a structured JSONL epoch tracer with pluggable
// sinks and decimation, span-style phase timers for controller profiling,
// and an HTTP debug endpoint (registry snapshot + pprof) for long runs.
//
// Everything here is designed so that the disabled path costs nothing: a
// nil Observer in sim.Options is a single branch per epoch, and the no-op
// tracer's sampling gate is a handful of instructions (see BenchmarkObs*).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored to keep the counter monotonic.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last set value (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// SharedSketch is a Sketch that many goroutines may record into at once:
// the registry's distribution metric, behind one mutex. Per-run sketches
// stay plain Sketches, since their run is their only writer.
type SharedSketch struct {
	mu sync.Mutex
	s  *Sketch
}

// Observe records one value.
func (s *SharedSketch) Observe(v float64) {
	s.mu.Lock()
	s.s.Observe(v)
	s.mu.Unlock()
}

// snapshot returns a copy of the sketch's current state.
func (s *SharedSketch) snapshot() *Sketch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.clone()
}

// Registry names and owns a process's metrics. Metric handles are
// get-or-create and stable, so hot paths fetch them once and record
// without touching the registry lock again.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	sketches map[string]*SharedSketch
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		sketches: make(map[string]*SharedSketch),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Sketch returns the named sketch, creating it on first use.
func (r *Registry) Sketch(name string) *SharedSketch {
	r.mu.RLock()
	sk := r.sketches[name]
	r.mu.RUnlock()
	if sk != nil {
		return sk
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if sk = r.sketches[name]; sk == nil {
		sk = &SharedSketch{s: NewSketch()}
		r.sketches[name] = sk
	}
	return sk
}

// Snapshot is a point-in-time copy of every metric, shaped for JSON. A
// sketch renders as its summary (see Sketch.MarshalJSON), so the JSON form
// is for reading, not for decoding back into sketches.
type Snapshot struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Sketches map[string]*Sketch `json:"sketches"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Sketches: make(map[string]*Sketch, len(r.sketches)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, sk := range r.sketches {
		s.Sketches[name] = sk.snapshot()
	}
	return s
}
