package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/rl"
)

// policyFile is the serialised form of a learned OD-RL policy: every
// per-core agent's Q-table plus the shape information needed to refuse a
// mismatched restore. Warm-starting from a saved policy lets a production
// deployment skip the cold-start exploration window (see the F6
// convergence experiment).
type policyFile struct {
	Version int         `json:"version"`
	Cores   int         `json:"cores"`
	States  int         `json:"states"`
	Actions int         `json:"actions"`
	Tables  []*rl.Table `json:"tables"`
}

const policyVersion = 1

// SavePolicy serialises the controller's learned per-core Q-tables. It is
// tabular-only; function-approximation controllers are rejected.
func (c *Controller) SavePolicy(w io.Writer) error {
	if c.linAgents != nil {
		return fmt.Errorf("core: policy persistence is tabular-only")
	}
	pf := policyFile{
		Version: policyVersion,
		Cores:   len(c.agents),
		States:  c.codec.States(),
		Actions: c.table.Levels(),
		Tables:  make([]*rl.Table, len(c.agents)),
	}
	for i, a := range c.agents {
		pf.Tables[i] = a.Table()
	}
	return json.NewEncoder(w).Encode(pf)
}

// LoadPolicy warm-starts the controller from a policy saved by SavePolicy.
// The policy must match this controller's core count and state/action
// shape exactly; refusing near-misses is deliberate, as a policy learned
// for a different discretisation is silently wrong. A refused policy
// changes no agent.
func (c *Controller) LoadPolicy(r io.Reader) error {
	if c.linAgents != nil {
		return fmt.Errorf("core: policy persistence is tabular-only")
	}
	var pf policyFile
	if err := json.NewDecoder(r).Decode(&pf); err != nil {
		return fmt.Errorf("core: decoding policy: %w", err)
	}
	if pf.Version != policyVersion {
		return fmt.Errorf("core: policy version %d, want %d", pf.Version, policyVersion)
	}
	if pf.Cores != len(c.agents) {
		return fmt.Errorf("core: policy for %d cores, controller has %d", pf.Cores, len(c.agents))
	}
	if pf.States != c.codec.States() || pf.Actions != c.table.Levels() {
		return fmt.Errorf("core: policy shape %dx%d, controller is %dx%d",
			pf.States, pf.Actions, c.codec.States(), c.table.Levels())
	}
	if len(pf.Tables) != pf.Cores {
		return fmt.Errorf("core: policy has %d tables for %d cores", len(pf.Tables), pf.Cores)
	}
	// Check every table before copying any, so a refused policy leaves
	// the controller untouched.
	for i, tbl := range pf.Tables {
		if tbl == nil {
			return fmt.Errorf("core: policy table %d missing", i)
		}
		if tbl.States() != pf.States || tbl.Actions() != pf.Actions {
			return fmt.Errorf("core: policy table %d is %dx%d, policy is %dx%d",
				i, tbl.States(), tbl.Actions(), pf.States, pf.Actions)
		}
	}
	for i, tbl := range pf.Tables {
		if err := c.agents[i].Table().CopyFrom(tbl); err != nil {
			return fmt.Errorf("core: policy table %d: %w", i, err)
		}
	}
	return nil
}
