// Package config defines the typed, JSON-serialisable description of a
// platform (device-level constants) and the named platform presets the
// evaluation uses. An experiment is a scenario spec (internal/scenario),
// which names a preset; Go callers can pass any Platform through
// sim.Options.Platform.
package config

import (
	"fmt"
	"sort"

	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/vf"
)

// Platform bundles the device-level constants of one chip family. The
// runtime core count lives in the run options, not here: the same device
// constants serve 16 through 1024 cores.
type Platform struct {
	Name     string  `json:"name"`
	VFLevels int     `json:"vf_levels"`
	FMinGHz  float64 `json:"f_min_ghz"`
	FMaxGHz  float64 `json:"f_max_ghz"`
	// Tech holds the alpha-power-law constants mapping frequency to the
	// minimum sustaining voltage.
	Tech vf.TechParams `json:"tech"`
	// Power, Thermal and NoC are the substrate constants.
	Power   power.Params   `json:"power"`
	Thermal thermal.Params `json:"thermal"`
	NoC     noc.Params     `json:"noc"`
	// TransitionPenaltyS is the DVFS actuation stall.
	TransitionPenaltyS float64 `json:"transition_penalty_s"`
}

// Default returns the 22 nm-class device used throughout the evaluation.
func Default() Platform {
	return Platform{
		Name:               "manycore-22nm",
		VFLevels:           8,
		FMinGHz:            1.0,
		FMaxGHz:            3.6,
		Tech:               vf.DefaultTech(),
		Power:              power.Default(),
		Thermal:            thermal.Default(),
		NoC:                noc.Default(),
		TransitionPenaltyS: 10e-6,
	}
}

// Validate reports the first invalid field.
func (p Platform) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("config: platform has empty name")
	}
	if p.VFLevels < 2 {
		return fmt.Errorf("config: platform needs >= 2 VF levels, got %d", p.VFLevels)
	}
	if p.FMinGHz <= 0 || p.FMaxGHz <= p.FMinGHz {
		return fmt.Errorf("config: invalid frequency range [%g, %g] GHz", p.FMinGHz, p.FMaxGHz)
	}
	if p.TransitionPenaltyS < 0 {
		return fmt.Errorf("config: negative transition penalty %g", p.TransitionPenaltyS)
	}
	if err := p.Power.Validate(); err != nil {
		return err
	}
	if err := p.Thermal.Validate(); err != nil {
		return err
	}
	if err := p.NoC.Validate(); err != nil {
		return err
	}
	// The VF table must be constructible.
	if _, err := p.VFTable(); err != nil {
		return err
	}
	return nil
}

// VFTable builds the platform's operating-point table.
func (p Platform) VFTable() (*vf.Table, error) {
	return vf.Generate(p.FMinGHz*1e9, p.FMaxGHz*1e9, p.VFLevels, p.Tech)
}

// platformPresets registers named device variants: the default 22 nm part,
// a near-threshold wide-range variant and a coarse 4-level commercial-style
// P-state part.
var platformPresets = map[string]func() Platform{
	"manycore-22nm": Default,
	"manycore-ntc": func() Platform {
		p := Default()
		p.Name = "manycore-ntc"
		p.FMinGHz = 0.4
		p.FMaxGHz = 3.2
		p.VFLevels = 12
		return p
	},
	"manycore-4pstate": func() Platform {
		p := Default()
		p.Name = "manycore-4pstate"
		p.VFLevels = 4
		return p
	},
}

// PlatformNames lists the registered presets in sorted order.
func PlatformNames() []string {
	names := make([]string, 0, len(platformPresets))
	for n := range platformPresets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PlatformPreset returns a named device preset.
func PlatformPreset(name string) (Platform, error) {
	f, ok := platformPresets[name]
	if !ok {
		return Platform{}, fmt.Errorf("config: unknown platform %q (have %v)", name, PlatformNames())
	}
	return f(), nil
}
