package core

import (
	"fmt"

	"repro/internal/manycore"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/vf"
)

// IslandController is the island-aware OD-RL variant: one RL agent per
// voltage-frequency island instead of one per core.
//
// Running per-core agents on shared islands composes badly: the island
// actuates at the max requested level, so with k cores exploring
// independently the island is pinned high whenever any one of them
// explores upward (experiment F13 quantifies the resulting overshoot).
// Aggregating each island into a single agent restores coordinated
// exploration at exactly the hardware's actuation granularity.
//
// The implementation wraps the per-core Controller: island telemetry is
// aggregated into one pseudo-core per island, the inner controller decides
// per island, and decisions fan back out to member cores.
type IslandController struct {
	inner                          *Controller
	chipW, chipH, islandW, islandH int
	islands                        [][]int // member core indices per island

	aggTel   manycore.Telemetry
	innerOut []int
}

// NewIslands builds an island-aware OD-RL controller for a chipW×chipH
// grid tiled by islandW×islandH islands.
func NewIslands(chipW, chipH, islandW, islandH int, table *vf.Table, pwr power.Params, cfg Config) (*IslandController, error) {
	if chipW <= 0 || chipH <= 0 {
		return nil, fmt.Errorf("core: invalid chip grid %dx%d", chipW, chipH)
	}
	if islandW <= 0 || islandH <= 0 {
		return nil, fmt.Errorf("core: invalid island %dx%d", islandW, islandH)
	}
	if chipW%islandW != 0 || chipH%islandH != 0 {
		return nil, fmt.Errorf("core: island %dx%d does not tile chip %dx%d",
			islandW, islandH, chipW, chipH)
	}
	perIsland := islandW * islandH
	nIslands := (chipW / islandW) * (chipH / islandH)

	inner, err := New(nIslands, table, pwr, cfg)
	if err != nil {
		return nil, err
	}
	// The inner controller's reward normalisation and budget floor are
	// per-core quantities; an island aggregates k cores.
	inner.maxIPS *= float64(perIsland)
	inner.hwFloor *= float64(perIsland)

	ic := &IslandController{
		inner:    inner,
		chipW:    chipW,
		chipH:    chipH,
		islandW:  islandW,
		islandH:  islandH,
		innerOut: make([]int, nIslands),
	}
	ic.aggTel.Cores = make([]manycore.CoreTelemetry, nIslands)
	for y0 := 0; y0 < chipH; y0 += islandH {
		for x0 := 0; x0 < chipW; x0 += islandW {
			members := make([]int, 0, perIsland)
			for dy := 0; dy < islandH; dy++ {
				for dx := 0; dx < islandW; dx++ {
					members = append(members, (y0+dy)*chipW+x0+dx)
				}
			}
			ic.islands = append(ic.islands, members)
		}
	}
	return ic, nil
}

// Name implements ctrl.Controller.
func (ic *IslandController) Name() string { return "od-rl-island" }

// Close releases the inner controller's worker pool, if it started one.
func (ic *IslandController) Close() error { return ic.inner.Close() }

// Islands returns the number of control domains.
func (ic *IslandController) Islands() int { return len(ic.islands) }

// Decide implements ctrl.Controller: aggregate per island, decide, fan out.
func (ic *IslandController) Decide(tel *manycore.Telemetry, budgetW float64, out []int) {
	n := ic.chipW * ic.chipH
	if len(tel.Cores) != n || len(out) != n {
		panic(fmt.Sprintf("core: telemetry for %d cores, out %d, controller expects %d",
			len(tel.Cores), len(out), n))
	}
	ic.aggTel.TimeS = tel.TimeS
	ic.aggTel.EpochS = tel.EpochS
	ic.aggTel.ChipPowerW = tel.ChipPowerW
	ic.aggTel.TruePowerW = tel.TruePowerW

	for k, members := range ic.islands {
		var ips, pw, mbWeighted, maxTemp float64
		level := 0
		for _, i := range members {
			ct := &tel.Cores[i]
			ips += ct.IPS
			pw += ct.PowerW
			mbWeighted += ct.MemBoundedness * ct.IPS
			if ct.TempK > maxTemp {
				maxTemp = ct.TempK
			}
			if ct.Level > level {
				level = ct.Level
			}
		}
		mb := 0.0
		if ips > 0 {
			mb = mbWeighted / ips
		}
		first := &tel.Cores[members[0]]
		ic.aggTel.Cores[k] = manycore.CoreTelemetry{
			Level:          level,
			FreqHz:         first.FreqHz,
			VoltageV:       first.VoltageV,
			IPS:            ips,
			PowerW:         pw,
			TempK:          maxTemp,
			MemBoundedness: mb,
		}
	}

	ic.inner.Decide(&ic.aggTel, budgetW, ic.innerOut)

	for k, members := range ic.islands {
		for _, i := range members {
			out[i] = ic.innerOut[k]
		}
	}
}

// CommPerEpoch implements ctrl.Controller. The island layer's reallocation
// gathers one message per island rather than per core; delegating to the
// inner controller on the full mesh over-charges slightly, which is the
// conservative direction.
func (ic *IslandController) CommPerEpoch(m *noc.Mesh) noc.Cost {
	return ic.inner.CommPerEpoch(m)
}

// Budgets exposes the per-island budget shares.
func (ic *IslandController) Budgets() []float64 { return ic.inner.Budgets() }
