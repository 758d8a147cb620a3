package core

import (
	"testing"

	"repro/internal/manycore"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/vf"
)

// synthTel fabricates one epoch of telemetry for n cores, varied by epoch
// so agents visit many states.
func synthTel(n int, epoch int, r *rng.RNG) *manycore.Telemetry {
	table := vf.Default()
	pp := power.Default()
	tel := &manycore.Telemetry{EpochS: 1e-3, Cores: make([]manycore.CoreTelemetry, n)}
	total := pp.UncoreW
	for i := range tel.Cores {
		lvl := (i + epoch) % table.Levels()
		op := table.Point(lvl)
		mb := r.Float64()
		pw := pp.CoreW(op.VoltageV, op.FreqHz, 0.3+0.6*r.Float64(), 330)
		tel.Cores[i] = manycore.CoreTelemetry{
			Level: lvl, FreqHz: op.FreqHz, VoltageV: op.VoltageV,
			IPS: op.FreqHz / (0.8 + 2*mb), PowerW: pw,
			MemBoundedness: mb, TempK: 330,
		}
		total += pw
	}
	tel.TruePowerW, tel.ChipPowerW = total, total
	return tel
}

// decideSequence drives a fresh controller for several epochs and returns
// every decision it made. frozen, when non-nil, marks (epoch, core) pairs
// whose telemetry repeats the previous epoch's reading exactly, as a
// sensor blackout serves it. For tabular agents it also returns the most
// distinct live step counts seen in one epoch.
func decideSequence(t *testing.T, cfg Config, n, epochs int, frozen func(e, i int) bool) ([][]int, int) {
	t.Helper()
	c, err := New(n, vf.Default(), power.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Telemetry is regenerated identically for both controllers: one RNG
	// per sequence, same seed.
	r := rng.New(123)
	budget := 1.2*float64(n) + power.Default().UncoreW
	var all [][]int
	var prev *manycore.Telemetry
	maxCounts := 0
	for e := 0; e < epochs; e++ {
		tel := synthTel(n, e, r)
		if frozen != nil && prev != nil {
			for i := range tel.Cores {
				if frozen(e, i) {
					tel.Cores[i] = prev.Cores[i]
				}
			}
		}
		if f := c.fleet; f != nil {
			counts := map[int]bool{}
			for i := 0; i < n; i++ {
				if !c.dead[i] {
					counts[f.Steps(i)] = true
				}
			}
			if len(counts) > maxCounts {
				maxCounts = len(counts)
			}
		}
		out := make([]int, n)
		c.Decide(tel, budget, out)
		all = append(all, out)
		prev = tel
	}
	return all, maxCounts
}

// blackouts freezes two overlapping core groups' telemetry: even cores
// for epochs 6–17, every third core for epochs 12–29. The watchdog holds
// each group for a different span, so their agents fall behind the
// lockstep step count by different amounts.
func blackouts(e, i int) bool {
	return i%2 == 0 && e >= 6 && e < 18 || i%3 == 0 && e >= 12 && e < 30
}

// TestDecideParallelDeterminism pins the OD-RL local phase's determinism:
// with 256 control domains the sharded agent loop must emit exactly the
// decisions the sequential loop does, in tabular and FA mode, and with the
// stale-telemetry watchdog holding agents through two blackouts of
// different core groups, so several step counts share the ε memo that the
// sharded workers read.
func TestDecideParallelDeterminism(t *testing.T) {
	const n, epochs = 256, 40
	for _, tc := range []struct {
		name   string
		fa     bool
		frozen func(e, i int) bool
	}{
		{"tabular", false, nil},
		{"fa", true, nil},
		{"watchdog-blackouts", false, blackouts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := func(workers int) Config {
				c := DefaultConfig()
				c.Workers = workers
				c.FunctionApprox = tc.fa
				if tc.fa {
					c.TraceLambda = 0.7
				}
				if tc.frozen != nil {
					c.WatchdogEpochs = 3
				}
				return c
			}
			seq, seqCounts := decideSequence(t, cfg(1), n, epochs, tc.frozen)
			parl, parCounts := decideSequence(t, cfg(8), n, epochs, tc.frozen)
			for e := range seq {
				for i := range seq[e] {
					if seq[e][i] != parl[e][i] {
						t.Fatalf("epoch %d core %d: sequential chose %d, parallel %d",
							e, i, seq[e][i], parl[e][i])
					}
				}
			}
			if tc.frozen != nil && (seqCounts < 2 || parCounts < 2) {
				t.Fatalf("at most %d/%d distinct live step counts in one epoch, want >= 2", seqCounts, parCounts)
			}
		})
	}
}

func TestConfigRejectsNegativeWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -2
	if _, err := New(64, vf.Default(), power.Default(), cfg); err == nil {
		t.Fatal("expected error for negative Workers")
	}
}

func TestLocalWorkersThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 8
	c, err := New(64, vf.Default(), power.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.localWorkers(64); got != 1 {
		t.Fatalf("64 domains report %d local workers, want 1", got)
	}
	c2, err := New(256, vf.Default(), power.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.localWorkers(256); got < 2 {
		t.Fatalf("256 domains report %d local workers, want >= 2", got)
	}
}
