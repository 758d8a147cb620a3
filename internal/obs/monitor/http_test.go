package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSSEStreamDeliversFrames subscribes a live SSE client, publishes
// epochs and an alert, and checks the wire format (`data: {json}\n\n`).
func TestSSEStreamDeliversFrames(t *testing.T) {
	m := New(Options{})
	srv := httptest.NewServer(m.LiveHandler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("GET", srv.URL, nil).WithContext(ctx)
	req.RequestURI = ""
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("GET /debug/live: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Wait for the subscription to register before publishing.
	deadline := time.Now().Add(2 * time.Second)
	for m.live.n.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	ev := obs.EpochEvent{Epoch: 7, PowerW: 85, BudgetW: 90, IPS: 2e9}
	m.live.publish(3, "odrl", &ev)
	al := obs.AlertEvent{Epoch: 7, Rule: "sustained-overshoot", Metric: MetricOvershootFrac}
	m.live.publishAlert(3, "odrl", &al)

	sc := bufio.NewScanner(resp.Body)
	var frames []string
	for sc.Scan() && len(frames) < 2 {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			frames = append(frames, strings.TrimPrefix(line, "data: "))
		}
	}
	if len(frames) != 2 {
		t.Fatalf("read %d frames, want 2 (scan err %v)", len(frames), sc.Err())
	}
	var epoch struct {
		Type       string  `json:"type"`
		Run        int     `json:"run"`
		Controller string  `json:"controller"`
		Epoch      int     `json:"epoch"`
		PowerW     float64 `json:"power_w"`
	}
	if err := json.Unmarshal([]byte(frames[0]), &epoch); err != nil {
		t.Fatalf("epoch frame not JSON: %v\n%s", err, frames[0])
	}
	if epoch.Type != "epoch" || epoch.Run != 3 || epoch.Controller != "odrl" || epoch.Epoch != 7 || epoch.PowerW != 85 {
		t.Fatalf("epoch frame = %+v", epoch)
	}
	var alert struct {
		Type string `json:"type"`
		Rule string `json:"rule"`
	}
	if err := json.Unmarshal([]byte(frames[1]), &alert); err != nil {
		t.Fatalf("alert frame not JSON: %v", err)
	}
	if alert.Type != "alert" || alert.Rule != "sustained-overshoot" {
		t.Fatalf("alert frame = %+v", alert)
	}
}

// TestSlowSubscriberNeverBlocksPublish fills a subscriber's buffer far past
// capacity without draining it; publish must stay non-blocking (frames are
// dropped for that subscriber instead).
func TestSlowSubscriberNeverBlocksPublish(t *testing.T) {
	m := New(Options{})
	ch := m.live.subscribe() // never drained: simulates a stalled client
	defer m.live.unsubscribe(ch)

	done := make(chan struct{})
	go func() {
		defer close(done)
		ev := obs.EpochEvent{Epoch: 1, PowerW: 80}
		for i := 0; i < 10*subBuffer; i++ {
			m.live.publish(1, "odrl", &ev)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a slow subscriber")
	}
	if len(ch) != subBuffer {
		t.Fatalf("subscriber buffer holds %d frames, want full %d", len(ch), subBuffer)
	}
}

// TestPublishWithoutSubscribersIsFree checks the no-subscriber gate: no
// frames are marshalled or delivered when nobody listens.
func TestPublishWithoutSubscribersIsFree(t *testing.T) {
	m := New(Options{})
	ev := obs.EpochEvent{Epoch: 1}
	allocs := testing.AllocsPerRun(100, func() {
		m.live.publish(1, "odrl", &ev)
	})
	if allocs != 0 {
		t.Fatalf("publish with no subscribers allocates %.1f/op, want 0", allocs)
	}
}

func TestTimelineHandler(t *testing.T) {
	tl := NewTimeline(16)
	tl.RecordSpan("local", 100, 50)
	rec := httptest.NewRecorder()
	TimelineHandler(tl).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline", nil))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d content-type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &f); err != nil {
		t.Fatalf("timeline not JSON: %v", err)
	}
	if len(f.TraceEvents) != 2 { // metadata + one span
		t.Fatalf("traceEvents = %v", f.TraceEvents)
	}
}

func TestHealthHandler(t *testing.T) {
	m := New(Options{})
	ro := m.BeginRun(testMeta)
	feedEpochs(ro, 5, nil)
	rec := httptest.NewRecorder()
	m.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	var runs []struct {
		ID         int              `json:"id"`
		Controller string           `json:"controller"`
		Epochs     int              `json:"epochs"`
		Done       bool             `json:"done"`
		Series     []SeriesSnapshot `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &runs); err != nil {
		t.Fatalf("health not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(runs) != 1 || runs[0].Epochs != 5 || !runs[0].Done || len(runs[0].Series) != len(storeMetrics) {
		t.Fatalf("health = %+v", runs)
	}
}
