package main

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
	"time"
)

// spanKind classifies a span for per-layer aggregation.
type spanKind uint8

const (
	kindRun      spanKind = iota // one simulated run: the body of sim.Run
	kindBuild                    // chip, controller or injector construction
	kindEpoch                    // one iteration of the epoch loop
	kindFault                    // fault.Injector Tick + FilterBudget
	kindStep                     // (*manycore.Chip).StepInto
	kindDecide                   // ctrl.Controller.Decide
	kindSetLevel                 // the per-core SetLevel actuation loop
)

// span is one timed call into a layer. Spans of one simulated run share
// run; parent indexes the enclosing span (-1 for a run's root).
type span struct {
	name   string
	kind   spanKind
	parent int32
	run    int32
	start  int64 // ns since the tracer's origin
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// layer is the module a span's name is prefixed with ("manycore.step" →
// "manycore").
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps spans in memory; nothing is written until the run ends. It
// is used from one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	run    int32
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, kind spanKind, parent int32) int32 {
	t.spans = append(t.spans, span{
		name: name, kind: kind, parent: parent, run: t.run,
		start: int64(time.Since(t.origin)),
	})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.origin)) }

// selfTimes returns each span's duration minus the time its direct children
// cover. Children of one span never overlap (the epoch loop is sequential),
// so the self times of a tree sum to its root's duration.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`  // µs
	Dur  float64     `json:"dur"` // µs
	Pid  int         `json:"pid"`
	Tid  int32       `json:"tid"`
	Args chromeIDArg `json:"args"`
}

type chromeIDArg struct {
	ID     int32 `json:"id"`
	Parent int32 `json:"parent"`
}

// chromeMeta names a process row.
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Args map[string]string `json:"args"`
}

// writeChromeTrace writes each outcome's retained spans as a Chrome
// trace-event JSON document: one process row per workload, one thread row
// per simulated run.
func writeChromeTrace(w io.Writer, outs []outcome) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	for k, o := range outs {
		pid := k + 1
		if err := emit(chromeMeta{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": o.Workload}}); err != nil {
			return err
		}
		for i, s := range o.spans {
			err := emit(chromeEvent{
				Name: s.name, Cat: s.layer(), Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Pid: pid, Tid: s.run,
				Args: chromeIDArg{ID: int32(i), Parent: s.parent},
			})
			if err != nil {
				return err
			}
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
