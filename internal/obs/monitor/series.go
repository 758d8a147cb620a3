// Package monitor is the streaming run-health layer on top of package obs:
// bounded per-metric time series, O(1) quantile sketches, a declarative
// alert-rules engine evaluating paper-claim invariants online, live HTTP
// read surfaces (/metrics, /debug/live SSE, /debug/timeline Perfetto), and
// an end-of-run alert summary. It observes simulation runs as a plain
// obs.Observer and never influences them: simulation output is
// bit-identical with monitoring on or off.
package monitor

import (
	"fmt"
	"sync"
)

// DefaultSeriesCap is the per-series point budget: 512 float64 points per
// metric keeps a whole run's view under ~30 KB however long it runs.
const DefaultSeriesCap = 512

// Series is a fixed-capacity epoch time series. Points are recorded every
// stride-th epoch; when the buffer fills, it decimates 2×: every other
// stored point is dropped and the stride doubles, so arbitrarily long runs
// fit in bounded memory while the retained points remain genuine
// observations at known epochs (point i sits at epoch i·stride).
type Series struct {
	name   string
	vals   []float64
	stride int // always a power of two, so the Append test is a mask
	seen   int // epochs offered so far (== next epoch index)
}

// NewSeries builds a series with the given point capacity (minimum 2).
func NewSeries(name string, capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	return &Series{name: name, vals: make([]float64, 0, capacity), stride: 1}
}

// Append offers the value observed at the next epoch. Only every stride-th
// epoch is stored; the rest cost one branch.
func (s *Series) Append(v float64) {
	if s.seen&(s.stride-1) == 0 {
		if len(s.vals) == cap(s.vals) {
			half := (len(s.vals) + 1) / 2
			for i := 0; i < half; i++ {
				s.vals[i] = s.vals[2*i]
			}
			s.vals = s.vals[:half]
			s.stride *= 2
		}
		s.vals = append(s.vals, v)
	}
	s.seen++
}

// SeriesSnapshot is a copied view of one series.
type SeriesSnapshot struct {
	Name string `json:"name"`
	// Stride is the epoch spacing between points: Values[i] was observed
	// at epoch i*Stride.
	Stride int       `json:"stride"`
	Epochs int       `json:"epochs"`
	Values []float64 `json:"values"`
}

// Snapshot copies the series' current view. The caller must hold whatever
// lock guards Append (Store's methods do this internally; external users of
// Series bring their own).
func (s *Series) Snapshot() SeriesSnapshot { return s.snapshot() }

func (s *Series) snapshot() SeriesSnapshot {
	return SeriesSnapshot{
		Name:   s.name,
		Stride: s.stride,
		Epochs: s.seen,
		Values: append([]float64(nil), s.vals...),
	}
}

// Canonical store metric names, in storage order. These are also the
// metric vocabulary of the alert-rules engine (which adds derived metrics
// on top; see rules.go).
const (
	MetricPowerW     = "power_w"
	MetricBudgetW    = "budget_w"
	MetricIPS        = "ips"
	MetricOvershootW = "overshoot_w"
	MetricDecideNs   = "decide_ns"
	MetricFaults     = "faults"
	MetricMaxTempK   = "max_temp_k"
)

// storeMetrics is the fixed per-epoch metric set every run records (an
// array so len(storeMetrics) is a compile-time constant for frame sizing).
var storeMetrics = [...]string{
	MetricPowerW, MetricBudgetW, MetricIPS, MetricOvershootW,
	MetricDecideNs, MetricFaults, MetricMaxTempK,
}

// Store holds one run's bounded time series, one per epoch metric. Writes
// come from the simulation loop and reads from HTTP handlers, so access is
// mutex-guarded; the per-epoch cost is one uncontended lock plus seven
// branchy appends.
type Store struct {
	mu     sync.Mutex
	series []*Series
}

// NewStore builds a store with the canonical metric set.
func NewStore(capacity int) *Store {
	st := &Store{series: make([]*Series, len(storeMetrics))}
	for i, name := range storeMetrics {
		st.series[i] = NewSeries(name, capacity)
	}
	return st
}

// Append records one epoch's values, in storeMetrics order.
func (st *Store) Append(vals *[len(storeMetrics)]float64) {
	st.mu.Lock()
	for i, s := range st.series {
		s.Append(vals[i])
	}
	st.mu.Unlock()
}

// Snapshot copies every series.
func (st *Store) Snapshot() []SeriesSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SeriesSnapshot, len(st.series))
	for i, s := range st.series {
		out[i] = s.snapshot()
	}
	return out
}

// Get returns the named series' snapshot.
func (st *Store) Get(name string) (SeriesSnapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range st.series {
		if s.name == name {
			return s.snapshot(), nil
		}
	}
	return SeriesSnapshot{}, fmt.Errorf("monitor: unknown series %q", name)
}
