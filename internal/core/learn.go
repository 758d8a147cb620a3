package core

import (
	"fmt"

	"repro/internal/obs"
)

// This file implements the learning-introspection side of the controller:
// ctrl.LearnStreamer (per-agent sample streaming into an obs.LearnSink) and
// ctrl.PolicySnapshotter (dense policy export for content-addressed
// snapshots). Both are pure reads over agent state — attaching a sink
// enables the agents' probes, which never draw RNG or reorder updates, so
// the decision stream stays bit-identical (proven by the byte-identical
// golden tests in internal/experiments).

// SetLearnSink implements ctrl.LearnStreamer. Attaching a sink enables
// per-step introspection on every tabular agent; nil detaches the sink
// after flushing any partial emit window, so strided sinks still see every
// epoch (the probes stay on — they are observation-only and cannot be
// raced off). Sinks that implement obs.LearnStrider receive one batched
// sample set per stride instead of one per epoch. The
// function-approximation mode has no tabular probes, so attaching there is
// a no-op and the controller streams nothing.
func (c *Controller) SetLearnSink(s obs.LearnSink) {
	if c.fleet == nil {
		return
	}
	if s == nil {
		if c.learnSink != nil && c.learnPend > 0 {
			c.emitLearn(c.learnPend)
			c.learnPend = 0
		}
		c.learnSink = nil
		return
	}
	c.fleet.EnableIntrospection()
	if c.learnBuf == nil {
		c.learnBuf = make([]obs.LearnCoreSample, c.fleet.Len())
	}
	c.learnEvery = 1
	if st, ok := s.(obs.LearnStrider); ok {
		if n := st.LearnEmitEvery(); n > 0 {
			c.learnEvery = n
		}
	}
	c.learnPend = 0
	c.learnSink = s
}

// emitLearn fills the sample buffer from the agents' probes and hands it to
// the sink; epochs is the number of control epochs the window covers.
// Called at the end of Decide, after the local phase has updated every live
// agent; the buffer is reused each emit (the LearnSink contract forbids
// retaining it).
//
//odrl:hotpath
func (c *Controller) emitLearn(epochs int) {
	// Re-warm the ε memo for the step counts the local phase left behind.
	// This runs on Decide's sequential tail or in the detach flush, so no
	// reader races the reset.
	f := c.fleet
	f.WarmEpsilon(c.dead)
	states := c.codec.States()
	for i := range c.learnBuf {
		s := &c.learnBuf[i]
		if c.dead[i] {
			*s = obs.LearnCoreSample{Dead: true}
			continue
		}
		p := f.Probe(i)
		s.TDError = p.TDError
		s.Epsilon = f.Epsilon(i)
		s.QSpread = p.QSpread
		s.GreedyChanged = f.TakeFlips(i) > 0
		s.ActedGreedy = p.ActedGreedy
		s.VisitedStates = f.VisitedStates(i)
		s.States = states
		s.Epochs = epochs
		s.Dead = false
	}
	c.learnSink.ObserveLearnEpoch(c.learnBuf)
}

// PolicyShape implements ctrl.PolicySnapshotter. FA mode has no dense
// policy tensor and reports zero cores.
func (c *Controller) PolicyShape() (cores, states, actions int) {
	if c.fleet == nil {
		return 0, 0, 0
	}
	return c.fleet.Len(), c.codec.States(), c.table.Levels()
}

// CopyPolicy implements ctrl.PolicySnapshotter: per-agent Q-tables
// concatenated core-major, the values SavePolicy persists.
func (c *Controller) CopyPolicy(dst []float64) error {
	if c.fleet == nil {
		return fmt.Errorf("core: %s has no exportable tabular policy", c.Name())
	}
	return c.fleet.CopyPolicy(dst)
}
