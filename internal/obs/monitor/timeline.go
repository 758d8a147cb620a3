package monitor

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// DefaultTimelineCap bounds the retained span count: 8192 spans × 32 B is
// 256 KiB however long the process runs.
const DefaultTimelineCap = 8192

// Span is one recorded controller phase interval.
type Span struct {
	Name    string
	StartNs int64
	DurNs   int64
}

// Timeline is a bounded ring of controller phase spans, fed through
// obs.SpanSink from any controller implementing ctrl.SpanStreamer, and
// exported as Chrome/Perfetto trace-event JSON. When full it overwrites
// the oldest spans, so the export always shows the most recent window. A
// session holds one: the flight recorder's, or with the ledger off its
// own (see package obs/session).
type Timeline struct {
	mu    sync.Mutex
	ring  []Span
	next  int
	total int64
}

// NewTimeline builds a timeline retaining up to capacity spans (min 16).
func NewTimeline(capacity int) *Timeline {
	if capacity < 16 {
		capacity = 16
	}
	return &Timeline{ring: make([]Span, 0, capacity)}
}

// RecordSpan implements obs.SpanSink.
func (t *Timeline) RecordSpan(name string, startNs, durNs int64) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, Span{Name: name, StartNs: startNs, DurNs: durNs})
	} else {
		t.ring[t.next] = Span{Name: name, StartNs: startNs, DurNs: durNs}
		t.next = (t.next + 1) % len(t.ring)
	}
	t.total++
	t.mu.Unlock()
}

// Total returns how many spans were ever recorded (retained or evicted).
func (t *Timeline) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// spans copies the retained spans in chronological order.
func (t *Timeline) spans() []Span {
	t.mu.Lock()
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	t.mu.Unlock()
	// Spans from concurrent controllers may interleave out of order in the
	// ring; the trace viewer wants monotonic timestamps per track.
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// traceEvent is one Chrome trace-event object ("X" complete events for
// spans, "M" metadata for track names). Timestamps and durations are
// microseconds, per the format.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the trace-event JSON object format Perfetto and
// chrome://tracing load directly.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceJSON exports the retained spans as trace-event JSON: one track
// (tid) per phase name, timestamps rebased to the first span so the trace
// opens at t=0.
func (t *Timeline) WriteTraceJSON(w io.Writer) error {
	spans := t.spans()
	var t0 int64
	if len(spans) > 0 {
		t0 = spans[0].StartNs
	}
	tids := map[string]int{}
	f := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	for _, sp := range spans {
		tid, ok := tids[sp.Name]
		if !ok {
			tid = len(tids) + 1
			tids[sp.Name] = tid
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": sp.Name},
			})
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: sp.Name, Cat: "ctrl", Ph: "X",
			Ts:  float64(sp.StartNs-t0) / 1e3,
			Dur: float64(sp.DurNs) / 1e3,
			Pid: 1, Tid: tid,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
