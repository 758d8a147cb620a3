package sim

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
	"repro/internal/rl"
)

// TestLearnDoesNotChangeResults is the read-only contract for the learning
// introspection layer: the same run with it off, on, and on with monitor +
// tracer teed must produce deep-equal simulated results at any worker
// count.
func TestLearnDoesNotChangeResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := monitorTestOpts()
		opts.Workers = workers
		base := stripWallClock(runWith(t, opts, "od-rl"))

		opts.Learn = learn.New(learn.Options{})
		introspected := stripWallClock(runWith(t, opts, "od-rl"))
		if !reflect.DeepEqual(base, introspected) {
			t.Fatalf("workers=%d: learning introspection changed the result", workers)
		}

		var buf bytes.Buffer
		tracer := obs.NewTracer(obs.NewWriterSink(&buf), obs.TracerOptions{Every: 8})
		opts.Learn = learn.New(learn.Options{})
		opts.Monitor = monitor.New(monitor.Options{})
		opts.Observer = tracer
		teed := stripWallClock(runWith(t, opts, "od-rl"))
		if !reflect.DeepEqual(base, teed) {
			t.Fatalf("workers=%d: learn+monitor+tracer tee changed the result", workers)
		}
		if err := tracer.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ReadRecords(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		learnRecs := 0
		epochRecs := 0
		for _, r := range recs {
			switch r.Type {
			case "learn":
				learnRecs++
				if r.Learn.TDErrEMA <= 0 || r.Learn.Epsilon <= 0 {
					t.Fatalf("degenerate learn record: %+v", r.Learn)
				}
			case "epoch":
				epochRecs++
			}
		}
		if learnRecs == 0 {
			t.Fatalf("workers=%d: no learn records in teed trace", workers)
		}
		if learnRecs != epochRecs {
			t.Fatalf("workers=%d: %d learn records vs %d epoch records (should ride the same stride)",
				workers, learnRecs, epochRecs)
		}
	}
}

// learnProbe is a test observer that samples every stride-th epoch and
// records the epochs whose event carried a learn event. With lean set it
// declines detail, like the monitor and the flight recorder.
type learnProbe struct {
	stride    int
	lean      bool
	sampled   []int
	withLearn []int
}

func (p *learnProbe) BeginRun(obs.RunMeta) obs.RunObserver {
	if p.lean {
		return leanProbeRun{richProbeRun{p}}
	}
	return richProbeRun{p}
}

type richProbeRun struct{ p *learnProbe }

func (r richProbeRun) ShouldSample(e int) bool { return e%r.p.stride == 0 }
func (r richProbeRun) ObserveEpoch(ev *obs.EpochEvent) {
	r.p.sampled = append(r.p.sampled, ev.Epoch)
	if l := ev.Learn; l != nil {
		e := ev.Epoch
		if l.Epoch != e || l.TimeS != ev.TimeS {
			e = -1 // a learn event naming another epoch
		}
		r.p.withLearn = append(r.p.withLearn, e)
	}
}
func (richProbeRun) End(metrics.Summary) {}

type leanProbeRun struct{ richProbeRun }

func (leanProbeRun) WantsEpochDetail(int) bool { return false }

// TestLearnEventRidesDetailedEpochs: the learn event is built only on
// epochs some observer takes detail for. An observer that declines detail
// (beside the monitor and the flight recorder, the benchmark's observed
// stack) never sees one; an observer that takes detail on a stride of 5
// sees one on exactly its sampled epochs.
func TestLearnEventRidesDetailedEpochs(t *testing.T) {
	opts := monitorTestOpts()
	_, measure := opts.Epochs()

	lean := &learnProbe{stride: 1, lean: true}
	rec := flight.New(flight.Options{})
	opts.Learn = learn.New(learn.Options{})
	opts.Monitor = monitor.New(monitor.Options{})
	opts.Observer = rec.Wrap(lean)
	runWith(t, opts, "od-rl")
	if len(lean.sampled) != measure || len(lean.withLearn) != 0 {
		t.Fatalf("lean observer sampled %d of %d epochs and saw a learn event on %d, want none",
			len(lean.sampled), measure, len(lean.withLearn))
	}

	rich := &learnProbe{stride: 5}
	opts.Learn = learn.New(learn.Options{})
	opts.Monitor = monitor.New(monitor.Options{})
	opts.Observer = rich
	runWith(t, opts, "od-rl")
	if len(rich.sampled) != (measure+4)/5 || !slices.Equal(rich.withLearn, rich.sampled) {
		t.Fatalf("stride-5 observer sampled %v, saw learn events on %v: want every sampled epoch and no other",
			rich.sampled, rich.withLearn)
	}
}

// TestLearnObservesRun checks the layer fills from a real run: every
// control epoch (warmup included) observed, convergence detector state
// sane, and epoch events carrying learn metrics.
func TestLearnObservesRun(t *testing.T) {
	opts := monitorTestOpts()
	lrn := learn.New(learn.Options{})
	opts.Learn = lrn
	runWith(t, opts, "od-rl")

	runs := lrn.Runs()
	if len(runs) != 1 {
		t.Fatalf("learn layer saw %d runs, want 1", len(runs))
	}
	warm, measure := opts.Epochs()
	s := runs[0].Summarize(false)
	if s.Epochs != warm+measure {
		t.Fatalf("learn epochs = %d, want %d (controller decisions incl. warmup)", s.Epochs, warm+measure)
	}
	if !s.Done {
		t.Fatal("run not marked done")
	}
	if s.LiveAgents != opts.Cores {
		t.Fatalf("live agents = %d, want %d", s.LiveAgents, opts.Cores)
	}
	if s.TDErrEMA <= 0 || s.Coverage <= 0 || s.Epsilon <= 0 {
		t.Fatalf("degenerate learning summary: %+v", s)
	}
	if s.Coverage > 1 {
		t.Fatalf("coverage %g > 1", s.Coverage)
	}
	if len(runs[0].ConvergedEpochs()) != opts.Cores {
		t.Fatal("detector state not per-core sized")
	}
}

// TestLearnIgnoresNonLearningControllers: a controller without
// ctrl.LearnStreamer must not register a run.
func TestLearnIgnoresNonLearningControllers(t *testing.T) {
	opts := monitorTestOpts()
	opts.MeasureS = 0.1
	lrn := learn.New(learn.Options{})
	opts.Learn = lrn
	runWith(t, opts, "pid")
	if n := len(lrn.Runs()); n != 0 {
		t.Fatalf("learn layer registered %d runs for a non-learning controller", n)
	}
}

// TestLearnSnapshotArtifacts runs with an artifact sink and verifies the
// content-addressed snapshot chain reconstructs, including the final policy
// write at run end, beside the run's learn.json. The chain and a
// SavePolicy file are one format: the chain's first snapshot is full (its
// write has no parent), so LoadPolicy warm-starts a fresh controller from
// the recorded file bit for bit, and LoadSnapshots reads the trained
// controller's SavePolicy file as a chain of one that matches the final
// snapshot.
func TestLearnSnapshotArtifacts(t *testing.T) {
	artifacts := map[string][]byte{}
	opts := monitorTestOpts()
	opts.MeasureS = 0.3
	opts.Learn = learn.New(learn.Options{SnapshotEvery: 100, Artifacts: func(name string, data []byte) {
		artifacts[name] = data
	}})
	trained := newODRL(t, opts)
	if _, err := Run(opts, trained); err != nil {
		t.Fatal(err)
	}

	if err := opts.Learn.Runs()[0].Err(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range artifacts {
		if !strings.HasPrefix(name, "learn/1-od-rl/") {
			t.Fatalf("artifact %s outside the run's directory", name)
		}
		if strings.HasSuffix(name, ".qsnap") {
			names = append(names, name)
		}
	}
	if _, ok := artifacts["learn/1-od-rl/learn.json"]; !ok {
		t.Fatal("no learn.json recorded")
	}
	snaps, err := learn.LoadSnapshots(names, func(name string) ([]byte, error) { return artifacts[name], nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots, want >= 2 (periodic + final)", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Cores != opts.Cores || last.States <= 0 || last.Actions <= 0 {
		t.Fatalf("snapshot shape %dx%dx%d", last.Cores, last.States, last.Actions)
	}
	if len(last.Q) != last.Cores*last.States*last.Actions {
		t.Fatal("reconstructed tensor size mismatch")
	}
	warm, measure := opts.Epochs()
	if int(last.Epoch) != warm+measure {
		t.Fatalf("final snapshot at epoch %d, want %d", last.Epoch, warm+measure)
	}

	sort.Strings(names) // write order
	first := artifacts[names[0]]
	snap, err := rl.DecodeSnapshot(first)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Delta {
		t.Fatalf("%s is a delta", names[0])
	}
	fresh := newODRL(t, opts)
	if err := fresh.LoadPolicy(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if !sameBits(copyPolicy(t, fresh), snap.Q) {
		t.Fatal("warm-started policy differs from the recorded snapshot")
	}

	var saved bytes.Buffer
	if err := trained.SavePolicy(&saved); err != nil {
		t.Fatal(err)
	}
	chain, err := learn.LoadSnapshots([]string{"policy.qsnap"}, func(string) ([]byte, error) { return saved.Bytes(), nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0].Epoch != last.Epoch {
		t.Fatalf("saved policy reads as %d snapshots, want 1 at epoch %d", len(chain), last.Epoch)
	}
	if !sameBits(chain[0].Q, copyPolicy(t, trained)) || !sameBits(chain[0].Q, last.Q) {
		t.Fatal("saved policy differs from CopyPolicy or from the final recorded snapshot")
	}
}

// newODRL builds the od-rl controller the factory builds for opts.
func newODRL(t *testing.T, opts Options) *core.Controller {
	t.Helper()
	env, err := EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController("od-rl", env)
	if err != nil {
		t.Fatal(err)
	}
	odrl := c.(*core.Controller)
	t.Cleanup(func() { odrl.Close() })
	return odrl
}

// copyPolicy returns c's policy tensor.
func copyPolicy(t *testing.T, c *core.Controller) []float64 {
	t.Helper()
	cores, states, actions := c.PolicyShape()
	q := make([]float64, cores*states*actions)
	if err := c.CopyPolicy(q); err != nil {
		t.Fatal(err)
	}
	return q
}

// sameBits compares two tensors bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestDefaultLearnFallback mirrors the observer contract: a run with no
// Stack.Learn falls back to no learn layer, so a layer attached to one run
// never sees the next.
func TestDefaultLearnFallback(t *testing.T) {
	lrn := learn.New(learn.Options{})
	opts := monitorTestOpts()
	opts.MeasureS = 0.1
	opts.Learn = lrn
	introspected := stripWallClock(runWith(t, opts, "od-rl"))
	opts.Learn = nil
	plain := stripWallClock(runWith(t, opts, "od-rl"))
	if runs := lrn.Runs(); len(runs) != 1 || runs[0].Summarize(false).Epochs == 0 {
		t.Fatalf("learn layer saw %d runs, want only the one it was attached to", len(lrn.Runs()))
	}
	if !reflect.DeepEqual(introspected, plain) {
		t.Fatal("run without a learn layer diverges from the introspected run")
	}
}
