package flight

import (
	"bytes"
	"encoding/json"

	"repro/internal/obs"
	"repro/internal/obs/monitor"
)

// bundleContext is the post-mortem's context.json: why the bundle exists
// and the quantile snapshot at dump time.
type bundleContext struct {
	Trigger string      `json:"trigger"`
	RunSeq  int         `json:"run_seq"`
	Meta    obs.RunMeta `json:"meta"`
	// Epochs is the run's total observed epoch count at dump time;
	// RetainedEpochs how many the ring held (the JSONL's line count).
	Epochs         int `json:"epochs"`
	RetainedEpochs int `json:"retained_epochs"`
	// Alerts/Faults are the retained recent events (counts may exceed
	// their lengths; AlertCount/FaultCount stay exact).
	AlertCount int                `json:"alert_count"`
	Alerts     []obs.AlertEvent   `json:"alerts,omitempty"`
	FaultCount int                `json:"fault_count"`
	Faults     []obs.FaultEvent   `json:"faults,omitempty"`
	Quantiles  map[string]float64 `json:"quantiles,omitempty"`
}

// dump builds and delivers the run's post-mortem bundle for a trigger.
// Each (run, trigger) pair dumps at most once: the interesting window is
// the one before the first firing, and repeat alerts would only overwrite
// it with later context.
func (f *flightRun) dump(trigger string) {
	cb := f.rec.opt.OnDump
	if cb == nil {
		return
	}
	f.mu.Lock()
	if f.dumped[trigger] || f.epochs == 0 {
		f.mu.Unlock()
		return
	}
	f.dumped[trigger] = true
	files, err := f.bundleLocked(trigger)
	f.mu.Unlock()
	if err != nil {
		// A bundle that fails to encode is dropped, never fatal: the
		// flight recorder must not take down the run it is documenting.
		return
	}
	cb(f.seq, f.meta, trigger, files)
}

// bundleLocked renders the bundle files from the current ring state.
func (f *flightRun) bundleLocked(trigger string) ([]BundleFile, error) {
	frames := f.framesLocked()

	var epochsBuf bytes.Buffer
	enc := json.NewEncoder(&epochsBuf)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			return nil, err
		}
	}

	ctx := bundleContext{
		Trigger:        trigger,
		RunSeq:         f.seq,
		Meta:           f.meta,
		Epochs:         f.epochs,
		RetainedEpochs: len(frames),
		AlertCount:     f.alertN,
		Alerts:         f.alerts,
		FaultCount:     f.faultN,
		Faults:         f.faults,
	}
	if f.decide.Count() > 0 {
		ctx.Quantiles = map[string]float64{
			"decide_p50_ns": f.decide.Quantile(0.5),
			"decide_p95_ns": f.decide.Quantile(0.95),
			"decide_p99_ns": f.decide.Quantile(0.99),
			"decide_max_ns": f.decide.Max(),
		}
	}
	ctxData, err := json.MarshalIndent(ctx, "", "  ")
	if err != nil {
		return nil, err
	}

	var spansBuf bytes.Buffer
	if err := f.rec.timeline.WriteTraceJSON(&spansBuf); err != nil {
		return nil, err
	}

	prefix := "flight/" + trigger + "/"
	return []BundleFile{
		{Name: prefix + "epochs.jsonl", Data: epochsBuf.Bytes()},
		{Name: prefix + "context.json", Data: append(ctxData, '\n')},
		{Name: prefix + "spans.json", Data: spansBuf.Bytes()},
	}, nil
}

// framesLocked copies the retained frames in chronological order.
func (f *flightRun) framesLocked() []frame {
	out := make([]frame, 0, len(f.ring))
	out = append(out, f.ring[f.nextIdx:]...)
	out = append(out, f.ring[:f.nextIdx]...)
	return out
}

// ReadEpochsJSONL decodes a bundle's epochs.jsonl back into frames; the
// flight tests use it to validate dumps.
func ReadEpochsJSONL(data []byte) ([]obs.EpochEvent, error) {
	var out []obs.EpochEvent
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var ev obs.EpochEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// ValidateTraceJSON checks that data parses as the Chrome/Perfetto
// trace-event format the monitor's timeline emits (displayTimeUnit +
// traceEvents array), returning the event count.
func ValidateTraceJSON(data []byte) (int, error) {
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return 0, err
	}
	return len(tf.TraceEvents), nil
}

// interface conformance pins: the recorder must satisfy every optional
// observer refinement it relies on.
var (
	_ obs.Observer           = (*Recorder)(nil)
	_ obs.RunObserver        = (*flightRun)(nil)
	_ obs.EpochDetailSampler = (*flightRun)(nil)
	_ obs.AlertObserver      = (*flightRun)(nil)
	_ obs.FaultObserver      = (*flightRun)(nil)
	_ obs.SpanSink           = (*monitor.Timeline)(nil)
)
