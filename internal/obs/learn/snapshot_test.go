package learn

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rl"
)

// fakePolicy is a PolicySource over a mutable tensor.
type fakePolicy struct {
	cores, states, actions int
	q                      []float64
}

func newFakePolicy(cores, states, actions int) *fakePolicy {
	q := make([]float64, cores*states*actions)
	for i := range q {
		q[i] = float64(i) * 0.5
	}
	return &fakePolicy{cores: cores, states: states, actions: actions, q: q}
}

func (p *fakePolicy) PolicyShape() (int, int, int) { return p.cores, p.states, p.actions }
func (p *fakePolicy) CopyPolicy(dst []float64) error {
	copy(dst, p.q)
	return nil
}

// memSink is an in-memory artifact sink.
type memSink map[string][]byte

func (m memSink) add(name string, data []byte) { m[name] = data }

func (m memSink) read(name string) ([]byte, error) {
	b, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("no artifact %s", name)
	}
	return b, nil
}

// names lists the sink's artifacts under prefix with the given suffix.
func (m memSink) names(prefix, suffix string) []string {
	var out []string
	for n := range m {
		if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) {
			out = append(out, n)
		}
	}
	return out
}

func TestSnapshotterDeltaChain(t *testing.T) {
	sink := memSink{}
	l := New(Options{Detector: fastDetector(), SnapshotEvery: 2, Artifacts: sink.add})
	r := l.BeginRun(obs.RunMeta{Controller: "od-rl"}, nil, 0)
	p := newFakePolicy(2, 4, 3)

	for e := 0; e < 6; e++ {
		push(r, []obs.LearnCoreSample{sample(0.01, false), sample(0.01, false)})
		p.q[e] += 1.0 // small drift so deltas stay small
		r.MaybeSnapshot(float64(e), p)
	}
	r.Finish(6.0, p)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	snaps, err := LoadSnapshots(sink.names("learn/1-od-rl/", ".qsnap"), sink.read)
	if err != nil {
		t.Fatal(err)
	}
	// Cadence 2 over 6 epochs → snapshots at 2, 4, 6, plus the final write
	// at Finish (same epoch 6, identical content, distinct only if changed —
	// content addressing dedupes identical blobs into one file).
	if len(snaps) < 3 {
		t.Fatalf("got %d snapshots, want >= 3", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !reflect.DeepEqual(last.Q, p.q) {
		t.Fatal("reconstructed final policy differs from source")
	}
	if _, ok := sink["learn/1-od-rl/learn.json"]; !ok || len(sink) != len(snaps)+1 {
		t.Fatalf("artifacts %v, want the snapshots plus learn.json", sink.names("", ""))
	}
}

// TestFinishWritesReport: learn.json decodes to the run's summary and its
// drained convergence events, and SnapshotEvery 0 writes no snapshot.
func TestFinishWritesReport(t *testing.T) {
	sink := memSink{}
	l := New(Options{Detector: fastDetector(), Artifacts: sink.add})
	r := l.BeginRun(obs.RunMeta{Controller: "od-rl", Seed: 3}, nil, 0)
	for e := 0; e < 10; e++ {
		push(r, []obs.LearnCoreSample{sample(0.001, false)})
		r.DrainConverged(func(cv *obs.ConvergedEvent) { cv.Epoch = e })
	}
	r.Finish(1, newFakePolicy(1, 2, 2))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if qs := sink.names("", ".qsnap"); len(qs) != 0 {
		t.Fatalf("SnapshotEvery 0 wrote snapshots %v", qs)
	}
	var rep Report
	if err := json.Unmarshal(sink["learn/1-od-rl/learn.json"], &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Meta.Seed != 3 || rep.Summary.Epochs != 10 || !rep.Summary.Done || len(rep.Summary.Curves) != 3 {
		t.Fatalf("summary %+v", rep.Summary)
	}
	if len(rep.Converged) != 1 || rep.Converged[0].Core != 0 || rep.Converged[0].Epoch == 0 {
		t.Fatalf("converged %+v, want core 0 with its stamped epoch", rep.Converged)
	}
}

func TestLoadSnapshotsBrokenChain(t *testing.T) {
	// A delta snapshot with no preceding full snapshot must be rejected.
	s := &rl.Snapshot{Epoch: 3, Cores: 1, States: 2, Actions: 2, Delta: true,
		Indices: []uint32{1}, Values: []float64{9}}
	s.Parent[5] = 1
	sink := memSink{"snap-00000003-abc.qsnap": s.Encode()}
	if _, err := LoadSnapshots(sink.names("", ".qsnap"), sink.read); err == nil {
		t.Fatal("orphan delta accepted")
	}
}
