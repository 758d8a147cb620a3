package core

import (
	"fmt"
	"io"
	"math"

	"repro/internal/rl"
)

// SavePolicy writes the controller's learned per-core Q-tables as one full
// rl.Snapshot of the tensor CopyPolicy exports, stamped with the number of
// decisions the controller has made. The learn layer records the same
// format, so a warm start can also boot from a snapshot in the run ledger;
// warm-starting lets a deployment skip the cold-start exploration window
// (see the F6 convergence experiment). It is tabular-only;
// function-approximation controllers are rejected.
func (c *Controller) SavePolicy(w io.Writer) error {
	if c.linAgents != nil {
		return fmt.Errorf("core: policy persistence is tabular-only")
	}
	cores, states, actions := c.PolicyShape()
	s := rl.Snapshot{
		Epoch: int64(c.epoch),
		Cores: cores, States: states, Actions: actions,
		Q: make([]float64, cores*states*actions),
	}
	if err := c.CopyPolicy(s.Q); err != nil {
		return err
	}
	if _, err := w.Write(s.Encode()); err != nil {
		return fmt.Errorf("core: writing policy: %w", err)
	}
	return nil
}

// LoadPolicy warm-starts the controller from one full snapshot, as
// SavePolicy writes it. The policy must match this controller's core count
// and state/action shape exactly; refusing near-misses is deliberate, as a
// policy learned for a different discretisation is silently wrong. It
// reads at most one byte past a full snapshot of this controller's shape,
// and refuses a delta snapshot (its tensor needs its chain, which
// learn.LoadSnapshots rebuilds) and any non-finite value. A refused policy
// changes no agent.
func (c *Controller) LoadPolicy(r io.Reader) error {
	if c.linAgents != nil {
		return fmt.Errorf("core: policy persistence is tabular-only")
	}
	cores, states, actions := c.PolicyShape()
	want := rl.FullSnapshotLen(cores, states, actions)
	data, err := io.ReadAll(io.LimitReader(r, int64(want)+1))
	if err != nil {
		return fmt.Errorf("core: reading policy: %w", err)
	}
	if len(data) > want {
		return fmt.Errorf("core: trailing data after a %d-byte policy for %dx%dx%d", want, cores, states, actions)
	}
	s, err := rl.DecodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("core: decoding policy: %w", err)
	}
	if s.Delta {
		return fmt.Errorf("core: policy is a delta snapshot; rebuild its chain with learn.LoadSnapshots")
	}
	if s.Cores != cores {
		return fmt.Errorf("core: policy for %d cores, controller has %d", s.Cores, cores)
	}
	if s.States != states || s.Actions != actions {
		return fmt.Errorf("core: policy shape %dx%d, controller is %dx%d", s.States, s.Actions, states, actions)
	}
	per := states * actions
	for i, v := range s.Q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: policy value %g at core %d, state %d, action %d",
				v, i/per, i%per/actions, i%actions)
		}
	}
	if err := c.fleet.LoadPolicy(s.Q); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
