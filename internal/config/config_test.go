package config

import "testing"

func TestDefaultPlatformValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllPresetsValid(t *testing.T) {
	names := PlatformNames()
	if len(names) < 3 {
		t.Fatalf("only %d platform presets", len(names))
	}
	for _, name := range names {
		p, err := PlatformPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("preset %q has Name %q", name, p.Name)
		}
		tbl, err := p.VFTable()
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Levels() != p.VFLevels {
			t.Fatalf("preset %q table has %d levels, want %d", name, tbl.Levels(), p.VFLevels)
		}
	}
}

func TestPlatformPresetUnknown(t *testing.T) {
	if _, err := PlatformPreset("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPlatformValidateBad(t *testing.T) {
	mutations := []func(*Platform){
		func(p *Platform) { p.Name = "" },
		func(p *Platform) { p.VFLevels = 1 },
		func(p *Platform) { p.FMinGHz = 0 },
		func(p *Platform) { p.FMaxGHz = p.FMinGHz },
		func(p *Platform) { p.FMaxGHz = 500 }, // unachievable under tech
		func(p *Platform) { p.TransitionPenaltyS = -1 },
		func(p *Platform) { p.Power.CeffF = 0 },
		func(p *Platform) { p.Thermal.NodeCapJPerK = 0 },
		func(p *Platform) { p.NoC.HopEnergyJ = -1 },
	}
	for i, m := range mutations {
		p := Default()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestPlatformNamesSorted(t *testing.T) {
	names := PlatformNames()
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}
