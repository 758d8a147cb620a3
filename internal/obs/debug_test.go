package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

func TestStartDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("epochs").Add(42)
	reg.Gauge("power_w").Set(88.5)
	reg.Sketch("decide_ns").Observe(2000)

	d, err := StartDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	resp, err := http.Get("http://" + d.Addr() + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/obs status %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("snapshot is not JSON: %v\n%s", err, body)
	}
	if snap.Counters["epochs"] != 42 || snap.Gauges["power_w"] != 88.5 {
		t.Errorf("snapshot = %+v", snap)
	}
	// A sketch reads as its summary.
	var sketches struct {
		Sketches map[string]struct {
			Count int64   `json:"count"`
			P99   float64 `json:"p99"`
		} `json:"sketches"`
	}
	if err := json.Unmarshal(body, &sketches); err != nil {
		t.Fatal(err)
	}
	if sk := sketches.Sketches["decide_ns"]; sk.Count != 1 || sk.P99 != 2000 {
		t.Errorf("decide_ns sketch summary = %+v, want count 1, p99 2000\n%s", sk, body)
	}

	resp, err = http.Get("http://" + d.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
}

func TestStartDebugNilRegistry(t *testing.T) {
	if _, err := StartDebug("127.0.0.1:0", nil); err == nil {
		t.Error("nil registry accepted")
	}
}
