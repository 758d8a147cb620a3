package manycore

import (
	"fmt"
	"math"
	"testing"
)

// TestSetLevelPaths covers both halves of SetLevel: the inlined store for
// an in-range level on an unhooked chip, and the general path a range
// error, a dead core or an actuation filter takes. A dead core must stay
// ignored after its chip's filter is removed, since removing the filter
// leaves the chip hooked while any core is dead.
func TestSetLevelPaths(t *testing.T) {
	nl := testConfig(2, 2).VF.Levels()
	top := nl - 1
	answer := func(out int) ActuationFilter {
		return actFilterFunc(func(_, _, _ int) int { return out })
	}
	for _, tc := range []struct {
		name        string
		setup       func(c *Chip)
		core, level int
		want        int    // latched request
		panics      string // "" when SetLevel must not panic
	}{
		{name: "in range", core: 0, level: top, want: top},
		{name: "below range", core: 0, level: -1,
			panics: fmt.Sprintf("manycore: level -1 out of range [0,%d)", nl)},
		{name: "at nLevels", core: 0, level: nl,
			panics: fmt.Sprintf("manycore: level %d out of range [0,%d)", nl, nl)},
		{name: "at nLevels with filter", setup: func(c *Chip) { c.SetActuationFilter(answer(0)) }, core: 0, level: nl,
			panics: fmt.Sprintf("manycore: level %d out of range [0,%d)", nl, nl)},
		{name: "dead core", setup: func(c *Chip) { c.FailCore(1) }, core: 1, level: top, want: 0},
		{name: "dead core below range", setup: func(c *Chip) { c.FailCore(1) }, core: 1, level: -1,
			panics: fmt.Sprintf("manycore: level -1 out of range [0,%d)", nl)},
		{name: "dead core after filter removed", setup: func(c *Chip) {
			c.FailCore(1)
			c.SetActuationFilter(nil)
		}, core: 1, level: top, want: 0},
		{name: "dead core after filter installed and removed", setup: func(c *Chip) {
			c.SetActuationFilter(answer(top))
			c.FailCore(1)
			c.SetActuationFilter(nil)
		}, core: 1, level: top, want: 0},
		{name: "live core beside a dead one", setup: func(c *Chip) { c.FailCore(1) }, core: 0, level: top, want: top},
		{name: "filter answer", setup: func(c *Chip) { c.SetActuationFilter(answer(1)) }, core: 0, level: top, want: 1},
		{name: "filter answer clamped high", setup: func(c *Chip) { c.SetActuationFilter(answer(999)) }, core: 0, level: 1, want: top},
		{name: "filter answer clamped low", setup: func(c *Chip) { c.SetActuationFilter(answer(-5)) }, core: 0, level: 1, want: 0},
		{name: "filter removed", setup: func(c *Chip) {
			c.SetActuationFilter(answer(0))
			c.SetActuationFilter(nil)
		}, core: 0, level: top, want: top},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chip := newTestChip(t, testConfig(2, 2), computeSource)
			if tc.setup != nil {
				tc.setup(chip)
			}
			got := panicValue(func() { chip.SetLevel(tc.core, tc.level) })
			if tc.panics != "" {
				if got != tc.panics {
					t.Fatalf("SetLevel(%d, %d) panicked with %v, want %q", tc.core, tc.level, got, tc.panics)
				}
				return
			}
			if got != nil {
				t.Fatalf("SetLevel(%d, %d) panicked: %v", tc.core, tc.level, got)
			}
			if r := chip.requested[tc.core]; r != tc.want {
				t.Fatalf("SetLevel(%d, %d) latched request %d, want %d", tc.core, tc.level, r, tc.want)
			}
		})
	}
}

// panicValue runs f and returns what it panicked with, or nil.
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestStepIntoOverwritesReusedSlots: StepInto promises to overwrite every
// core slot in full, so stepping into telemetry whose slots last held a
// chip with dead cores (Dead set, readings zero), or arbitrary values, must
// give exactly what a fresh Step of an identical chip gives.
func TestStepIntoOverwritesReusedSlots(t *testing.T) {
	const w, h = 4, 4
	for _, tc := range []struct {
		name string
		fill func(t *testing.T, tel *Telemetry)
	}{
		{"dead-core chip", func(t *testing.T, tel *Telemetry) {
			prev := buildHeteroChip(t, w, h, 1, true)
			defer prev.Close()
			for i := 0; i < w*h; i += 3 {
				prev.FailCore(i)
			}
			prev.StepInto(1e-3, tel)
		}},
		{"poisoned", func(t *testing.T, tel *Telemetry) {
			nan := math.NaN()
			tel.Cores = make([]CoreTelemetry, w*h)
			for i := range tel.Cores {
				tel.Cores[i] = CoreTelemetry{
					Level: -1, FreqHz: nan, VoltageV: nan, IPS: nan, PowerW: nan, TempK: nan,
					MemBoundedness: nan, Instructions: nan, PhaseChanged: true, Dead: true,
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tel Telemetry
			tc.fill(t, &tel)
			reused := buildHeteroChip(t, w, h, 1, true)
			fresh := buildHeteroChip(t, w, h, 1, true)
			defer reused.Close()
			defer fresh.Close()
			reused.StepInto(1e-3, &tel)
			want := fresh.Step(1e-3)
			if tel.EpochS != want.EpochS || tel.TimeS != want.TimeS ||
				tel.ChipPowerW != want.ChipPowerW || tel.TruePowerW != want.TruePowerW {
				t.Fatalf("chip telemetry: reused %+v, fresh %+v", tel, want)
			}
			for i := range want.Cores {
				if tel.Cores[i] != want.Cores[i] {
					t.Fatalf("core %d:\nreused %+v\nfresh  %+v", i, tel.Cores[i], want.Cores[i])
				}
			}
		})
	}
}
