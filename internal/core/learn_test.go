package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// learnCapture records every batch handed to ObserveLearnEpoch, copying the
// samples (the LearnSink contract forbids retaining the buffer).
type learnCapture struct {
	every   int
	batches [][]obs.LearnCoreSample
}

func (lc *learnCapture) ObserveLearnEpoch(samples []obs.LearnCoreSample) {
	cp := make([]obs.LearnCoreSample, len(samples))
	copy(cp, samples)
	lc.batches = append(lc.batches, cp)
}

func (lc *learnCapture) LearnEmitEvery() int { return lc.every }

func TestSetLearnSinkStreamsSamples(t *testing.T) {
	const cores = 4
	c := newController(t, cores, Config{})
	tel := fakeTel(cores, 3, 1.0, 0.2)
	out := make([]int, cores)

	// Strided sink: 3 epochs at stride 2 must deliver exactly one batch
	// covering a 2-epoch window, with the third epoch left pending.
	sink := &learnCapture{every: 2}
	c.SetLearnSink(sink)
	for i := 0; i < 3; i++ {
		c.Decide(tel, 40, out)
	}
	if len(sink.batches) != 1 {
		t.Fatalf("stride-2 sink got %d batches after 3 epochs, want 1", len(sink.batches))
	}
	b := sink.batches[0]
	if len(b) != cores {
		t.Fatalf("batch has %d samples, want %d", len(b), cores)
	}
	for i, s := range b {
		if s.Dead {
			t.Fatalf("core %d reported dead on a healthy chip", i)
		}
		if s.Epochs != 2 {
			t.Fatalf("core %d window covers %d epochs, want 2", i, s.Epochs)
		}
		if s.States <= 0 || s.VisitedStates <= 0 || s.VisitedStates > s.States {
			t.Fatalf("core %d visit coverage %d/%d out of range", i, s.VisitedStates, s.States)
		}
		if s.Epsilon <= 0 || s.Epsilon > 1 {
			t.Fatalf("core %d epsilon %g out of range", i, s.Epsilon)
		}
	}

	// Detaching must flush the pending single-epoch window.
	c.SetLearnSink(nil)
	if len(sink.batches) != 2 {
		t.Fatalf("detach flushed to %d batches, want 2", len(sink.batches))
	}
	if got := sink.batches[1][0].Epochs; got != 1 {
		t.Fatalf("flushed window covers %d epochs, want 1", got)
	}

	// A sink reporting a zero stride streams one batch per epoch.
	plain := &learnCapture{}
	c.SetLearnSink(plain)
	c.Decide(tel, 40, out)
	c.Decide(tel, 40, out)
	if len(plain.batches) != 2 {
		t.Fatalf("per-epoch sink got %d batches after 2 epochs, want 2", len(plain.batches))
	}
}

// TestEmitLearnEpsilonFromMemo: the learn emit reads ε after the local
// phase's updates, through the ε memo it re-warms for the post-update step
// counts, and each live sample's ε must equal the schedule's inline
// formula at that count bit for bit.
func TestEmitLearnEpsilonFromMemo(t *testing.T) {
	const cores = 8
	c := newController(t, cores, Config{})
	tel := fakeTel(cores, 3, 1.0, 0.2)
	out := make([]int, cores)
	sink := &learnCapture{}
	c.SetLearnSink(sink)
	for e := 0; e < 6; e++ {
		if e == 3 {
			tel.Cores[5].Dead = true
		}
		c.Decide(tel, 40, out)
		batch := sink.batches[len(sink.batches)-1]
		for i := 0; i < cores; i++ {
			if c.dead[i] {
				continue
			}
			steps := c.fleet.Steps(i)
			want := c.cfg.EpsilonEnd + (c.cfg.EpsilonStart-c.cfg.EpsilonEnd)*math.Pow(c.cfg.EpsilonDecay, float64(steps))
			if got := batch[i].Epsilon; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("epoch %d: agent %d sample ε %v, want %v", e, i, got, want)
			}
		}
	}
}

func TestPolicySnapshotterRoundTrip(t *testing.T) {
	const cores = 3
	c := newController(t, cores, Config{})
	tel := fakeTel(cores, 3, 1.0, 0.2)
	out := make([]int, cores)
	for i := 0; i < 10; i++ {
		c.Decide(tel, 40, out)
	}

	nc, states, actions := c.PolicyShape()
	if nc != cores || states <= 0 || actions <= 0 {
		t.Fatalf("PolicyShape = (%d,%d,%d), want %d cores and positive dims", nc, states, actions, cores)
	}
	dst := make([]float64, nc*states*actions)
	if err := c.CopyPolicy(dst); err != nil {
		t.Fatal(err)
	}
	var nonzero bool
	for _, v := range dst {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("policy tensor is all zeros after 10 learning epochs")
	}

	if err := c.CopyPolicy(make([]float64, 1)); err == nil || !strings.Contains(err.Error(), "dst has") {
		t.Fatalf("short dst error = %v, want size mismatch", err)
	}
}

func TestLearnFunctionApproxNoTabularPolicy(t *testing.T) {
	c := newController(t, 4, Config{FunctionApprox: true})
	// No tabular agents: attaching a sink is a no-op and the policy
	// exporter reports an empty shape.
	c.SetLearnSink(&learnCapture{})
	if nc, _, _ := c.PolicyShape(); nc != 0 {
		t.Fatalf("FA mode PolicyShape cores = %d, want 0", nc)
	}
	if err := c.CopyPolicy(nil); err == nil {
		t.Fatal("FA mode CopyPolicy must refuse")
	}
}
