package obs

import (
	"sync/atomic"
	"time"
)

// Canonical controller phase names; sim maps these onto metrics.Summary
// phase-time fields.
const (
	PhaseLocal  = "local"  // per-core (distributed) learning updates
	PhaseGlobal = "global" // global budget reallocation
	PhaseComm   = "comm"   // communication accounting
)

// PhaseTime is one phase's accumulated wall-clock profile.
type PhaseTime struct {
	Name  string        `json:"name"`
	Total time.Duration `json:"total_ns"`
	Count int64         `json:"count"`
}

// Mean returns the average span duration (0 when empty).
func (p PhaseTime) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// SpanSink receives individual phase spans as they complete, for timeline
// views (the session's span ring, which Perfetto exports read). RecordSpan
// is called from controller hot paths and must be cheap and
// concurrency-safe.
type SpanSink interface {
	RecordSpan(name string, startNs, durNs int64)
}

// SpanTimer accumulates wall-clock time into named phases. Recording is a
// pair of atomic adds, cheap enough to stay enabled on controller hot
// paths; reads (Snapshot) and Reset may race with writers and see a
// slightly torn but individually consistent view, which is fine for
// profiling. An optional SpanSink additionally streams each individual
// span; with no sink attached the extra cost is one atomic pointer load.
type SpanTimer struct {
	names []string
	ns    []atomic.Int64
	n     []atomic.Int64
	sink  atomic.Pointer[spanSinkBox]
}

// spanSinkBox wraps the interface so the atomic pointer has a concrete
// element type.
type spanSinkBox struct{ s SpanSink }

// NewSpanTimer builds a timer over a fixed set of phase names; phases are
// addressed by their index in this list.
func NewSpanTimer(names ...string) *SpanTimer {
	return &SpanTimer{
		names: append([]string(nil), names...),
		ns:    make([]atomic.Int64, len(names)),
		n:     make([]atomic.Int64, len(names)),
	}
}

// Observe adds one span of duration d to phase i. The span is assumed to
// have just ended, so a streaming sink sees start = now − d.
func (t *SpanTimer) Observe(i int, d time.Duration) {
	t.ns[i].Add(int64(d))
	t.n[i].Add(1)
	if box := t.sink.Load(); box != nil {
		now := time.Now().UnixNano()
		box.s.RecordSpan(t.names[i], now-int64(d), int64(d))
	}
}

// ObserveSince ends a span that began at start: it measures the duration
// itself and, when streaming, derives the sink timestamp from start instead
// of reading the clock again. Controller hot paths that already hold the
// start time should prefer this over Observe(i, time.Since(start)) — it
// costs exactly one clock read whether or not a sink is attached.
func (t *SpanTimer) ObserveSince(i int, start time.Time) {
	d := time.Since(start)
	t.ns[i].Add(int64(d))
	t.n[i].Add(1)
	if box := t.sink.Load(); box != nil {
		box.s.RecordSpan(t.names[i], start.UnixNano(), int64(d))
	}
}

// SetSink attaches (or, with nil, detaches) a streaming span sink. Safe to
// call while writers are recording.
func (t *SpanTimer) SetSink(s SpanSink) {
	if s == nil {
		t.sink.Store(nil)
		return
	}
	t.sink.Store(&spanSinkBox{s: s})
}

// Total returns phase i's accumulated duration.
func (t *SpanTimer) Total(i int) time.Duration {
	return time.Duration(t.ns[i].Load())
}

// Snapshot copies every phase's accumulated profile, in construction order.
func (t *SpanTimer) Snapshot() []PhaseTime {
	out := make([]PhaseTime, len(t.names))
	for i, name := range t.names {
		out[i] = PhaseTime{
			Name:  name,
			Total: time.Duration(t.ns[i].Load()),
			Count: t.n[i].Load(),
		}
	}
	return out
}

// Reset zeroes all phases, e.g. at the warmup/measurement boundary so
// phase totals cover the same window as the run's controller-time metric.
func (t *SpanTimer) Reset() {
	for i := range t.ns {
		t.ns[i].Store(0)
		t.n[i].Store(0)
	}
}
