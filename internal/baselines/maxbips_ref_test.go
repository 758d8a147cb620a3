package baselines

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/manycore"
	"repro/internal/rng"
	"repro/internal/vf"
	"repro/internal/workload"
)

// refMaxBIPS is MaxBIPS's original full-grid solve: every row of the DP
// spans all buckets 0…budget. The windowed solve must return exactly its
// assignments, ties included.
type refMaxBIPS struct {
	pred   ctrl.Predictor
	resW   float64
	dp     []float64
	choice []int16
}

// solve is the full-grid knapsack DP, kept verbatim as the oracle.
func (m *refMaxBIPS) solve(tel *manycore.Telemetry, budgetW float64, out []int) {
	n := len(tel.Cores)
	levels := m.pred.VF.Levels()
	coreBudget := budgetW - m.pred.Power.UncoreW
	if coreBudget <= 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	buckets := int(coreBudget / m.resW)

	// Per-(core, level) predicted cost in buckets and value in IPS.
	costs := make([]int, n*levels)
	values := make([]float64, n*levels)
	for i := 0; i < n; i++ {
		for l := 0; l < levels; l++ {
			p := m.pred.PowerAt(tel.Cores[i], l)
			cost := int(math.Ceil(p / m.resW))
			if cost < 0 || math.IsNaN(p) {
				// int(Ceil(NaN)) is implementation-defined and a negative
				// cost would index dp out of range; corrupted predictions
				// degrade to "free", never to a crash.
				cost = 0
			}
			costs[i*levels+l] = cost
			v := m.pred.IPSAt(tel.Cores[i], l)
			if math.IsNaN(v) {
				v = 0
			}
			values[i*levels+l] = v
		}
	}

	const neg = math.MaxFloat64
	if len(m.dp) < 2*(buckets+1) {
		m.dp = make([]float64, 2*(buckets+1))
	}
	if len(m.choice) < n*(buckets+1) {
		m.choice = make([]int16, n*(buckets+1))
	}
	cur := m.dp[:buckets+1]
	next := m.dp[buckets+1 : 2*(buckets+1)]
	for b := range cur {
		cur[b] = -neg
	}
	cur[0] = 0

	feasible := true
	for i := 0; i < n && feasible; i++ {
		rowChoice := m.choice[i*(buckets+1) : (i+1)*(buckets+1)]
		for b := range next {
			next[b] = -neg
			rowChoice[b] = -1
		}
		any := false
		for b := 0; b <= buckets; b++ {
			if cur[b] == -neg {
				continue
			}
			for l := 0; l < levels; l++ {
				nb := b + costs[i*levels+l]
				if nb > buckets {
					continue
				}
				if v := cur[b] + values[i*levels+l]; v > next[nb] {
					next[nb] = v
					rowChoice[nb] = int16(l)
					any = true
				}
			}
		}
		if !any {
			feasible = false
		}
		cur, next = next, cur
	}

	if !feasible {
		// Even all-minimum exceeds the budget: the best a VF controller
		// can do is pin everything to the bottom level.
		for i := range out {
			out[i] = 0
		}
		return
	}

	// Best final bucket, then backtrack the choices.
	bestB, bestV := -1, -neg
	for b := 0; b <= buckets; b++ {
		if cur[b] > bestV {
			bestB, bestV = b, cur[b]
		}
	}
	b := bestB
	for i := n - 1; i >= 0; i-- {
		l := int(m.choice[i*(buckets+1)+b])
		out[i] = l
		b -= costs[i*m.pred.VF.Levels()+l]
	}
}

// fuzzFloat decodes one byte into a telemetry reading on the given scale,
// reserving the low codes for the readings a faulty sensor path produces.
func fuzzFloat(b byte, scale float64) float64 {
	switch b {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return -scale
	case 4:
		return 0
	case 5:
		return 1e300
	case 6:
		// About 2^63 buckets at the factory's 0.05 W resolution: a cost
		// within a budget's reach of MaxInt64.
		return 4.6116860184273868e17
	}
	return scale * float64(b) / 128
}

// fuzzFrame decodes up to 64 cores, five bytes each: level (the top bit
// copies the previous core instead, so values tie exactly), power, IPS,
// memory-boundedness and temperature.
func fuzzFrame(data []byte, table *vf.Table) *manycore.Telemetry {
	n := min(len(data)/5, 64)
	tel := &manycore.Telemetry{EpochS: 1e-3, Cores: make([]manycore.CoreTelemetry, n)}
	for i := range tel.Cores {
		d := data[5*i : 5*i+5]
		if d[0]&0x80 != 0 && i > 0 {
			tel.Cores[i] = tel.Cores[i-1]
			continue
		}
		lvl := int(d[0]) % table.Levels()
		op := table.Point(lvl)
		tempK := 300 + float64(d[4])/2
		if d[4] == 0 {
			tempK = math.NaN()
		}
		tel.Cores[i] = manycore.CoreTelemetry{
			Level: lvl, FreqHz: op.FreqHz, VoltageV: op.VoltageV,
			PowerW: fuzzFloat(d[1], 1), IPS: fuzzFloat(d[2], 2e9),
			MemBoundedness: fuzzFloat(d[3], 0.5), TempK: tempK,
		}
	}
	return tel
}

// fuzzBudget picks a chip budget: below, at and just above the uncore
// floor, or a per-core share for the rest of the codes.
func fuzzBudget(sel byte, cores int, uncoreW, resW float64) float64 {
	switch sel % 8 {
	case 0:
		return uncoreW - 1
	case 1:
		return uncoreW
	case 2:
		return uncoreW + resW/2
	case 3:
		return uncoreW + resW
	}
	return uncoreW + float64(cores)*float64(sel)/128
}

// predictedIPS sums the solver's own value of an assignment in core order,
// the order the DP accumulates it.
func predictedIPS(p ctrl.Predictor, tel *manycore.Telemetry, levels []int) float64 {
	sum := 0.0
	for i, l := range levels {
		if v := p.IPSAt(tel.Cores[i], l); !math.IsNaN(v) {
			sum += v
		}
	}
	return sum
}

// bucketCost is the solver's cost of one (core, level) pair in buckets.
func bucketCost(p ctrl.Predictor, ct manycore.CoreTelemetry, level int, resW float64) int {
	pw := p.PowerAt(ct, level)
	cost := int(math.Ceil(pw / resW))
	if cost < 0 || math.IsNaN(pw) {
		cost = 0
	}
	return cost
}

// fits reports whether an assignment's bucket costs total at most
// buckets; cheapest replaces every level by the core's cheapest one.
// Summing stops at the limit, so huge costs cannot overflow.
func fits(p ctrl.Predictor, tel *manycore.Telemetry, levels []int, cheapest bool, resW float64, buckets int) bool {
	sum := 0
	for i, l := range levels {
		cost := bucketCost(p, tel.Cores[i], l, resW)
		if cheapest {
			for k := 0; k < p.VF.Levels(); k++ {
				cost = min(cost, bucketCost(p, tel.Cores[i], k, resW))
			}
		}
		if cost > buckets-sum {
			return false
		}
		sum += cost
	}
	return true
}

// refSolve runs the reference and reports whether it panicked (the full
// grid's b+cost overflows for a cost within buckets of MaxInt64).
func refSolve(ref *refMaxBIPS, tel *manycore.Telemetry, budgetW float64, out []int) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	ref.solve(tel, budgetW, out)
	return false
}

// FuzzMaxBIPSMatchesReference is the differential oracle for the windowed
// DP: on frames of 0–64 cores with NaN, infinite, negative, zero and huge
// readings, duplicated cores and budgets around the uncore floor, the
// windowed solve returns exactly the full grid's levels. Where the full
// grid itself panics, the windowed solve must still return in-range
// levels. It also checks the solve's own contract: the assignment fits the
// budget's buckets, and its predicted IPS never falls as the budget rises.
func FuzzMaxBIPSMatchesReference(f *testing.F) {
	f.Add([]byte{3, 60, 90, 40, 60, 5, 100, 20, 90, 60, 0x80, 0, 0, 0, 0}, byte(9), byte(20), byte(1))
	f.Add([]byte{0, 0, 1, 2, 0, 7, 5, 6, 3, 4, 7, 6, 5, 130, 200}, byte(2), byte(3), byte(0))
	f.Add([]byte{7, 6, 40, 40, 40, 7, 120, 40, 40, 40, 0x80, 0, 0, 0, 0, 0x80, 0, 0, 0, 0}, byte(40), byte(16), byte(2))
	// 63 cores near 2 W at the top level, then one whose bottom level
	// costs about 2^63 buckets: the full grid's b+cost overflows there.
	overflow := bytes.Repeat([]byte{7, 255, 128, 10, 60}, 63)
	f.Add(append(overflow, 0, 6, 128, 10, 60), byte(255), byte(1), byte(0))
	// No cores: the body's second solve, a budget step up, runs above the
	// uncore floor.
	f.Add([]byte{}, byte(1), byte(59), byte(3))
	// 48 exactly tied cores: every bucket the DP reaches ties many ways.
	tied := append([]byte{4, 90, 100, 30, 80}, bytes.Repeat([]byte{0x80, 0, 0, 0, 0}, 47)...)
	f.Add(tied, byte(40), byte(7), byte(0))
	f.Add(append(tied, 6, 70, 60, 90, 40, 0x80, 0, 0, 0, 0), byte(90), byte(3), byte(1))
	// IPS readings of 1e300 beside ordinary ones, and an infinite one.
	f.Add([]byte{4, 60, 5, 40, 60, 2, 50, 5, 10, 70, 6, 80, 100, 20, 90, 0x80, 0, 0, 0, 0, 5, 30, 5, 0, 50}, byte(20), byte(5), byte(0))
	f.Add([]byte{4, 60, 1, 40, 60, 2, 50, 90, 10, 70, 6, 80, 100, 20, 90, 3, 40, 1, 0, 50}, byte(30), byte(2), byte(2))
	f.Fuzz(func(t *testing.T, data []byte, budgetSel, stepSel, resSel byte) {
		table := vf.Default()
		p := predictor(t)
		resW := [...]float64{0.05, 0.01, 0.1, 0.37}[resSel%4]
		tel := fuzzFrame(data, table)
		n := len(tel.Cores)
		m, err := NewMaxBIPS(p, 1, resW)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refMaxBIPS{pred: p, resW: resW}

		budget := fuzzBudget(budgetSel, n, p.Power.UncoreW, resW)
		got, want := make([]int, n), make([]int, n)
		m.solve(tel, budget, got)
		if refSolve(ref, tel, budget, want) {
			for i, l := range got {
				if l < 0 || l >= table.Levels() {
					t.Fatalf("core %d: level %d out of range", i, l)
				}
			}
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("core %d: windowed level %d, full grid %d\ngot  %v\nwant %v", i, got[i], want[i], got, want)
				}
			}
		}

		// A frame whose cheapest levels fit must get an assignment that
		// fits; any other frame pins every core to the bottom level.
		if coreBudget := budget - p.Power.UncoreW; coreBudget > 0 {
			buckets := int(coreBudget / resW)
			if fits(p, tel, got, true, resW, buckets) {
				if !fits(p, tel, got, false, resW, buckets) {
					t.Fatalf("assignment %v exceeds %d buckets", got, buckets)
				}
			} else {
				for i, l := range got {
					if l != 0 {
						t.Fatalf("infeasible frame: core %d at level %d, want 0", i, l)
					}
				}
			}
		}

		higher := make([]int, n)
		m.solve(tel, budget+float64(stepSel)*resW, higher)
		if lo, hi := predictedIPS(p, tel, got), predictedIPS(p, tel, higher); hi < lo {
			t.Fatalf("predicted IPS fell from %g to %g as the budget rose by %d buckets", lo, hi, stepSel)
		}
	})
}

// plainCells counts the source cells the plain windows hold, without the
// bound's trim: row i's window runs from the cheapest total of cores
// 0…i−1 to their dearest total, capped by the buckets the rest need.
func plainCells(p ctrl.Predictor, tel *manycore.Telemetry, budgetW, resW float64) int {
	buckets := int((budgetW - p.Power.UncoreW) / resW)
	n, levels := len(tel.Cores), p.VF.Levels()
	minCost, maxCost := make([]int, n), make([]int, n)
	rest := 0
	for i, ct := range tel.Cores {
		minCost[i], maxCost[i] = buckets+1, 0
		for l := 0; l < levels; l++ {
			c := min(bucketCost(p, ct, l, resW), buckets+1)
			minCost[i], maxCost[i] = min(minCost[i], c), max(maxCost[i], c)
		}
		rest += minCost[i]
	}
	cells, lo, hi := 0, 0, 0
	for i := range tel.Cores {
		cells += hi - lo + 1
		rest -= minCost[i]
		lo, hi = lo+minCost[i], min(hi+maxCost[i], buckets-rest)
	}
	return cells
}

// ferretChip64 is a seeded 64-core ferret chip on the default platform.
func ferretChip64(t *testing.T) *manycore.Chip {
	t.Helper()
	sources := make([]workload.Source, 64)
	base := rng.New(3)
	for i := range sources {
		src, err := workload.NewProcess(workload.MustPreset("ferret"), base.Split())
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = src
	}
	chip, err := manycore.New(manycore.DefaultConfig(), sources, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// TestMaxBIPSBoundTrimsWindows: on 64-core frames of a ferret chip that
// MaxBIPS drives at 55 W, the bounded solve returns the full grid's
// levels and relaxes at most a quarter of the source cells the plain
// windows hold, so a bound that stops trimming fails here and not only in
// a benchmark.
func TestMaxBIPSBoundTrimsWindows(t *testing.T) {
	const budget, resW = 55.0, 0.05
	p := predictor(t)
	chip := ferretChip64(t)
	defer chip.Close()
	m, err := NewMaxBIPS(p, 1, resW)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refMaxBIPS{pred: p, resW: resW}
	got, want := make([]int, 64), make([]int, 64)
	for e := 0; e <= 400; e++ {
		tel := chip.Step(1e-3)
		relaxed := m.solve(&tel, budget, got)
		if e >= 100 && e%25 == 0 {
			ref.solve(&tel, budget, want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("epoch %d core %d: level %d, full grid %d", e, i, got[i], want[i])
				}
			}
			if plain := plainCells(p, &tel, budget, resW); 4*relaxed > plain {
				t.Errorf("epoch %d: relaxed %d of the plain windows' %d cells, want at most a quarter", e, relaxed, plain)
			}
		}
		for i, l := range got {
			chip.SetLevel(i, l)
		}
	}
}

// TestMaxBIPSBoundFallsBack: a frame whose bound is not finite (an
// infinite IPS reading, readings whose sum overflows, or a multiplier so
// steep that λ·buckets overflows) keeps the plain windows and still
// returns the full grid's levels.
func TestMaxBIPSBoundFallsBack(t *testing.T) {
	const budget, resW = 55.0, 0.05
	p := predictor(t)
	chip := ferretChip64(t)
	defer chip.Close()
	for e := 0; e < 150; e++ {
		chip.Step(1e-3)
	}
	base := chip.Step(1e-3)
	for _, tc := range []struct {
		name  string
		cores []int
		ips   float64
	}{
		{"infinite", []int{17}, math.Inf(1)},
		{"overflowing", []int{3, 9, 17, 25, 33, 40, 41, 50, 63}, math.MaxFloat64 / 8},
		{"steep", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, 1e306},
	} {
		tel := base
		tel.Cores = append([]manycore.CoreTelemetry(nil), base.Cores...)
		for _, i := range tc.cores {
			tel.Cores[i].IPS = tc.ips
		}
		m, err := NewMaxBIPS(p, 1, resW)
		if err != nil {
			t.Fatal(err)
		}
		got, want := make([]int, 64), make([]int, 64)
		relaxed := m.solve(&tel, budget, got)
		(&refMaxBIPS{pred: p, resW: resW}).solve(&tel, budget, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: core %d at level %d, full grid %d", tc.name, i, got[i], want[i])
			}
		}
		if plain := plainCells(p, &tel, budget, resW); relaxed != plain {
			t.Errorf("%s: relaxed %d cells, want the plain windows' %d", tc.name, relaxed, plain)
		}
	}
}
