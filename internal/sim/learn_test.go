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
	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
	"repro/internal/rl"
)

// TestLearnDoesNotChangeResults is the read-only contract for the learning
// introspection layer: the same run with it off, on, and on with monitor +
// tracer chained must produce deep-equal simulated results at any worker
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
		chained := stripWallClock(runWith(t, opts, "od-rl"))
		if !reflect.DeepEqual(base, chained) {
			t.Fatalf("workers=%d: learn+monitor+tracer chain changed the result", workers)
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
			t.Fatalf("workers=%d: no learn records in chained trace", workers)
		}
		if learnRecs != epochRecs {
			t.Fatalf("workers=%d: %d learn records vs %d epoch records (should ride the same stride)",
				workers, learnRecs, epochRecs)
		}
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
