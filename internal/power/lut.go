package power

import "math"

// LUT holds per-level precomputed leakage factors for a discrete VF
// table. Levels are the only voltages the chip ever runs at, so the
// math.Pow in LeakageW — constant per level — has no business executing
// per core per epoch.
//
// Bit-exactness contract: LeakageWAt(l, t), and LeakageWFrom(l, f) for
// the factor f that TempFactor or TempFactors computes at t, return the
// exact float64 LeakageW(voltagesV[l], t) returns, for every level and
// temperature. That holds because LeakageW computes
//
//	v * ((LeakI0A * Pow(v/Vref, exp)) * Exp(coeff*(t-Tref)))
//
// left-associated, so caching the parenthesised Pow prefix per level and
// replaying the remaining two multiplies in the same order reproduces the
// identical rounding sequence. The golden-file regression tests depend on
// this: any reassociation here would diverge every RL trajectory.
type LUT struct {
	p Params
	// voltsV[l] is the supply voltage of level l (copied from the VF
	// table slab).
	voltsV []float64
	// leakBase[l] = LeakI0A * Pow(voltsV[l]/VrefV, LeakVoltageExp): the
	// temperature-independent prefix of the leakage current.
	leakBase []float64
}

// NewLUT precomputes leakage factors for the given per-level voltages
// (typically vf.Table.VoltagesV). The slice is copied.
func NewLUT(p Params, voltagesV []float64) *LUT {
	l := &LUT{
		p:        p,
		voltsV:   append([]float64(nil), voltagesV...),
		leakBase: make([]float64, len(voltagesV)),
	}
	for i, v := range voltagesV {
		if v <= 0 {
			continue // LeakageW returns 0 for v <= 0; keep base at 0
		}
		l.leakBase[i] = p.LeakI0A * math.Pow(v/p.VrefV, p.LeakVoltageExp)
	}
	return l
}

// Levels returns the number of precomputed levels.
func (l *LUT) Levels() int { return len(l.voltsV) }

// LeakageWAt returns leakage power at level and temperature, bit-equal to
// Params.LeakageW at that level's voltage: the two halves below composed.
// One Exp and two multiplies — the Pow is amortised into construction.
func (l *LUT) LeakageWAt(level int, tempK float64) float64 {
	return l.LeakageWFrom(level, l.TempFactor(tempK))
}

// TempFactor is leakage's temperature factor at tempK, the Exp in
// LeakageW: LeakageWFrom finishes any level's leakage from it, so a caller
// that needs several levels at one temperature pays for one Exp.
//
//odrl:hotpath
func (l *LUT) TempFactor(tempK float64) float64 {
	return math.Exp(l.p.LeakTempCoeffPerK * (tempK - l.p.TrefK))
}

// TempFactors writes each core's leakage temperature factor,
// exp(LeakTempCoeffPerK·(tempsK[i] − TrefK)), into dst[i]; tempsK must be
// at least as long as dst. The epoch kernel runs it over a shard before its
// per-core loop: the calls are independent, so their latencies overlap,
// where one Exp per iteration would head each core's dependency chain.
//
//odrl:hotpath
func (l *LUT) TempFactors(dst, tempsK []float64) {
	tempsK = tempsK[:len(dst)]
	for i, t := range tempsK {
		dst[i] = l.TempFactor(t)
	}
}

// LeakageWFrom finishes leakage at level from a core's temperature factor
// (TempFactors), with the same two multiplies in the same order as
// LeakageW, so the result is bit-equal to LeakageWAt at that temperature.
//
//odrl:hotpath
func (l *LUT) LeakageWFrom(level int, factor float64) float64 {
	v := l.voltsV[level]
	if v <= 0 {
		return 0
	}
	return v * (l.leakBase[level] * factor)
}

// FixedTempLeakageW returns a per-level leakage table at one fixed
// temperature, bit-equal to Params.LeakageW per level. Chips without a
// thermal model run every core at the ambient temperature forever, which
// reduces per-core leakage to a single indexed load.
func (l *LUT) FixedTempLeakageW(tempK float64) []float64 {
	out := make([]float64, len(l.voltsV))
	f := l.TempFactor(tempK)
	for lev := range out {
		out[lev] = l.LeakageWFrom(lev, f)
	}
	return out
}
