package workload

import (
	"testing"

	"repro/internal/rng"
)

func workPhase() Phase {
	return Phase{Class: Compute, BaseCPI: 1.0, MPKI: 0, MemLatencyNs: 80, Activity: 0.9}
}

func TestNewBarrierAppValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewBarrierApp(0, workPhase(), 1e6, 0, r); err == nil {
		t.Fatal("expected error for zero lanes")
	}
	if _, err := NewBarrierApp(4, Phase{}, 1e6, 0, r); err == nil {
		t.Fatal("expected error for invalid phase")
	}
	if _, err := NewBarrierApp(4, workPhase(), 0, 0, r); err == nil {
		t.Fatal("expected error for zero quota")
	}
	if _, err := NewBarrierApp(4, workPhase(), 1e6, 1.0, r); err == nil {
		t.Fatal("expected error for imbalance >= 1")
	}
	if _, err := NewBarrierApp(4, workPhase(), 1e6, 0, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

func TestBarrierSuperstepCycle(t *testing.T) {
	app, err := NewBarrierApp(2, workPhase(), 1000, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	l0, l1 := app.Lane(0), app.Lane(1)

	// Both start working.
	if l0.PhaseIndex() != 0 || l1.PhaseIndex() != 0 {
		t.Fatal("lanes should start in the work phase")
	}
	if l0.Phase().Class != Compute {
		t.Fatal("work phase class wrong")
	}

	// Lane 0 finishes its quota; it must wait (work→wait = 1 change).
	if ch := l0.AdvanceWork(1e-3, 1000); ch != 1 {
		t.Fatalf("lane 0 finishing quota: %d changes, want 1", ch)
	}
	if l0.PhaseIndex() != 1 || l0.Phase().Class != Idle {
		t.Fatal("finished lane not waiting")
	}
	if app.Supersteps() != 0 {
		t.Fatal("barrier released early")
	}

	// Waiting lane makes no further progress.
	if ch := l0.AdvanceWork(1e-3, 999999); ch != 0 {
		t.Fatalf("waiting lane reported %d changes", ch)
	}

	// Lane 1 arrives: barrier releases, both return to work. Lane 1 sees
	// two changes (work→wait and wait→work).
	if ch := l1.AdvanceWork(1e-3, 1000); ch != 2 {
		t.Fatalf("last lane arriving: %d changes, want 2", ch)
	}
	if app.Supersteps() != 1 {
		t.Fatalf("supersteps = %d, want 1", app.Supersteps())
	}
	if l0.PhaseIndex() != 0 || l1.PhaseIndex() != 0 {
		t.Fatal("lanes not released after the barrier")
	}
}

func TestBarrierPartialProgressAccumulates(t *testing.T) {
	app, _ := NewBarrierApp(1, workPhase(), 1000, 0, rng.New(1))
	l := app.Lane(0)
	// A single lane releases its own barrier immediately upon arrival.
	if ch := l.AdvanceWork(1e-3, 600); ch != 0 {
		t.Fatal("premature phase change")
	}
	if ch := l.AdvanceWork(1e-3, 600); ch != 2 {
		t.Fatalf("quota completion: %d changes, want 2 (arrive + release)", ch)
	}
	if app.Supersteps() != 1 {
		t.Fatal("superstep not counted")
	}
}

func TestBarrierImbalanceSpreadsQuotas(t *testing.T) {
	app, err := NewBarrierApp(32, workPhase(), 1e6, 0.3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	min, max := app.lanes[0].quota, app.lanes[0].quota
	for _, l := range app.lanes {
		if l.quota < min {
			min = l.quota
		}
		if l.quota > max {
			max = l.quota
		}
		if l.quota < 0.7e6-1 || l.quota > 1.3e6+1 {
			t.Fatalf("quota %v outside imbalance bounds", l.quota)
		}
	}
	if max-min < 0.1e6 {
		t.Fatalf("imbalance produced too little spread: [%v, %v]", min, max)
	}
}

func TestBarrierSlowLaneGatesProgress(t *testing.T) {
	// Two lanes, equal quotas; lane 1 retires at half speed. Superstep
	// rate must be set by the slow lane.
	app, _ := NewBarrierApp(2, workPhase(), 1000, 0, rng.New(1))
	fast, slow := app.Lane(0), app.Lane(1)
	for step := 0; step < 100; step++ {
		fast.AdvanceWork(1e-3, 200)
		slow.AdvanceWork(1e-3, 100)
	}
	// Slow lane needs 10 steps per superstep → 10 supersteps in 100 steps.
	if got := app.Supersteps(); got != 10 {
		t.Fatalf("supersteps = %d, want 10 (gated by the slow lane)", got)
	}
}

func TestBarrierAdvanceFallback(t *testing.T) {
	app, _ := NewBarrierApp(1, workPhase(), 2.5e6, 0, rng.New(1))
	l := app.Lane(0)
	// At the nominal 2.5 GHz with CPI 1.0, 1 ms retires 2.5e6 instructions
	// — exactly one quota.
	if ch := l.Advance(1e-3); ch != 2 {
		t.Fatalf("Advance fallback: %d changes, want 2", ch)
	}
}

func TestBarrierAdvanceWorkPanicsOnNegative(t *testing.T) {
	app, _ := NewBarrierApp(1, workPhase(), 1000, 0, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	app.Lane(0).AdvanceWork(-1, 0)
}

// TestBarrierReleaseMatchesScan drives random AdvanceWork sequences and
// checks the arrival counter against a full scan of the lanes' waiting
// flags: a call releases the barrier exactly when every other lane was
// waiting and the advanced lane arrives, and the counter always equals
// the number of waiting lanes. One lane stops being advanced at a random
// step, standing in for a dead core: from then on the barrier can release
// at most once more (if the lane died waiting) and then stalls for good.
func TestBarrierReleaseMatchesScan(t *testing.T) {
	r := rng.New(17)
	releasingTrials := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(11)
		app, err := NewBarrierApp(n, workPhase(), 1000, 0.3, rng.New(uint64(trial+1)))
		if err != nil {
			t.Fatal(err)
		}
		dead, dieAt := r.Intn(n), r.Intn(800)
		releases, afterDeath := 0, 0
		for step := 0; step < 1000; step++ {
			i := r.Intn(n)
			if i == dead && step >= dieAt {
				continue
			}
			l := app.lanes[i]
			instr := 600 * r.Float64()
			othersWaiting := true
			for j, o := range app.lanes {
				if j != i && !o.waiting {
					othersWaiting = false
					break
				}
			}
			arrives := l.waiting || l.remaining-instr <= 0
			before := app.Supersteps()
			app.Lane(i).AdvanceWork(1e-3, instr)

			released := app.Supersteps() - before
			if want := othersWaiting && arrives; released != 0 && !want || released != 1 && want {
				t.Fatalf("trial %d step %d lane %d: released %d, scan says release=%v",
					trial, step, i, released, want)
			}
			releases += released
			if step >= dieAt {
				afterDeath += released
			}
			waiting := 0
			for _, o := range app.lanes {
				if o.waiting {
					waiting++
				} else if released == 1 && o.remaining != o.quota {
					t.Fatalf("trial %d step %d: released lane not reset to its quota", trial, step)
				}
			}
			if waiting != app.arrived {
				t.Fatalf("trial %d step %d: %d lanes waiting, arrival count %d", trial, step, waiting, app.arrived)
			}
		}
		if app.Supersteps() != releases {
			t.Fatalf("trial %d: Supersteps() = %d, scan counted %d releases", trial, app.Supersteps(), releases)
		}
		if afterDeath > 1 {
			t.Fatalf("trial %d: %d releases after lane %d died", trial, afterDeath, dead)
		}
		if releases > 0 {
			releasingTrials++
		}
	}
	if releasingTrials < 150 {
		t.Fatalf("only %d of 200 trials released the barrier; the sequences exercise too little", releasingTrials)
	}
}
