package monitor

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// subBuffer is each SSE subscriber's frame buffer. A subscriber that falls
// more than subBuffer frames behind starts losing frames (newest-wins
// drop), which is the price of never letting a slow client block the
// simulation loop.
const subBuffer = 64

// liveHub fans epoch and alert frames out to SSE subscribers. The
// simulation-side publish path is strictly non-blocking: with no
// subscribers it is one atomic load, and a full subscriber channel drops
// the frame for that subscriber only.
type liveHub struct {
	mu   sync.Mutex
	subs map[chan []byte]struct{}
	n    atomic.Int32
}

func newLiveHub() *liveHub {
	return &liveHub{subs: make(map[chan []byte]struct{})}
}

func (h *liveHub) subscribe() chan []byte {
	ch := make(chan []byte, subBuffer)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	h.n.Add(1)
	return ch
}

func (h *liveHub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
	h.n.Add(-1)
}

// liveEpoch is one SSE epoch frame: the run identity plus the epoch event,
// flattened.
type liveEpoch struct {
	Type       string `json:"type"`
	Run        int    `json:"run"`
	Controller string `json:"controller,omitempty"`
	obs.EpochEvent
}

// liveAlert is one SSE alert frame.
type liveAlert struct {
	Type       string `json:"type"`
	Run        int    `json:"run"`
	Controller string `json:"controller,omitempty"`
	obs.AlertEvent
}

func (h *liveHub) publish(runID int, controller string, ev *obs.EpochEvent) {
	if h.n.Load() == 0 {
		return
	}
	b, err := json.Marshal(liveEpoch{Type: "epoch", Run: runID, Controller: controller, EpochEvent: *ev})
	if err != nil {
		return
	}
	h.broadcast(b)
}

func (h *liveHub) publishAlert(runID int, controller string, ev *obs.AlertEvent) {
	if h.n.Load() == 0 {
		return
	}
	b, err := json.Marshal(liveAlert{Type: "alert", Run: runID, Controller: controller, AlertEvent: *ev})
	if err != nil {
		return
	}
	h.broadcast(b)
}

func (h *liveHub) broadcast(b []byte) {
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- b:
		default: // slow client: drop this frame for it, never block
		}
	}
	h.mu.Unlock()
}

// LiveHandler returns the /debug/live surface: a Server-Sent Events stream
// of per-epoch snapshots and fired alerts across all active runs
// (`data: {json}` events, one per sampled epoch). Slow or disconnected
// clients lose frames rather than slowing the run.
func (m *Monitor) LiveHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		fl.Flush()

		ch := m.live.subscribe()
		defer m.live.unsubscribe(ch)
		for {
			select {
			case <-r.Context().Done():
				return
			case b := <-ch:
				if _, err := w.Write([]byte("data: ")); err != nil {
					return
				}
				if _, err := w.Write(b); err != nil {
					return
				}
				if _, err := w.Write([]byte("\n\n")); err != nil {
					return
				}
				fl.Flush()
			}
		}
	})
}

// TimelineHandler returns the /debug/timeline surface: the phase spans in
// tl as Chrome/Perfetto trace-event JSON, loadable directly in
// ui.perfetto.dev or chrome://tracing.
func TimelineHandler(tl *Timeline) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		tl.WriteTraceJSON(w) //nolint:errcheck // best-effort debug output
	})
}

// HealthHandler returns the /debug/health surface: a JSON snapshot of
// every run's health record and bounded time series.
func (m *Monitor) HealthHandler() http.Handler {
	type runJSON struct {
		ID         int              `json:"id"`
		Controller string           `json:"controller"`
		Workload   string           `json:"workload,omitempty"`
		Epochs     int              `json:"epochs"`
		Faults     int              `json:"faults"`
		AlertCount int              `json:"alert_count"`
		Alerts     []obs.AlertEvent `json:"alerts,omitempty"`
		Done       bool             `json:"done"`
		Series     []SeriesSnapshot `json:"series"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		runs := m.Runs()
		out := make([]runJSON, len(runs))
		for i, h := range runs {
			out[i] = runJSON{
				ID: h.ID, Controller: h.Meta.Controller, Workload: h.Meta.Workload,
				Epochs: h.Epochs, Faults: h.Faults, AlertCount: h.AlertCount,
				Alerts: h.Alerts, Done: h.Done, Series: h.Store.Snapshot(),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out) //nolint:errcheck // best-effort debug output
	})
}
