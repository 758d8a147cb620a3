package sim

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
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

// TestLearnSnapshotArtifacts runs with an artifact directory and verifies
// the content-addressed snapshot chain reconstructs, including the final
// policy write at run end.
func TestLearnSnapshotArtifacts(t *testing.T) {
	dir := t.TempDir()
	opts := monitorTestOpts()
	opts.MeasureS = 0.3
	opts.Learn = learn.New(learn.Options{SnapshotEvery: 100, ArtifactDir: dir})
	runWith(t, opts, "od-rl")

	if err := opts.Learn.Runs()[0].Err(); err != nil {
		t.Fatal(err)
	}
	runDirs, err := filepath.Glob(filepath.Join(dir, "run-*"))
	if err != nil || len(runDirs) != 1 {
		t.Fatalf("run dirs = %v (err %v)", runDirs, err)
	}
	snaps, err := learn.LoadSnapshots(runDirs[0])
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
