package workload

import (
	"fmt"

	"repro/internal/rng"
)

// WorkSource is a Source whose progress depends on retired instructions,
// not just wall time. The simulator feeds each epoch's actual instruction
// count back, closing the loop between DVFS decisions and program
// progress — a slow core takes longer to reach its barrier.
//
// WorkSource also marks shared application state: manycore treats any
// source implementing it as coupled to its siblings and disables parallel
// chip stepping. Wrappers around a WorkSource must implement WorkSource
// themselves (forwarding AdvanceWork) so this detection still fires; see
// the invariant notes on Source. A lane's phase may flip when another lane
// advances (a barrier release, a job dispatch); the memoisation invariant
// on Source covers that, since the kernel keys on PhaseIndex alone.
type WorkSource interface {
	Source
	// AdvanceWork moves time forward dt seconds during which the core
	// retired the given instructions; it returns the number of phase
	// boundaries crossed (work→wait or wait→work).
	AdvanceWork(dt, instructions float64) int
}

// BarrierApp models a bulk-synchronous multithreaded application: n lanes
// (one per core) each execute a per-superstep instruction quota of the
// work phase, then block at a barrier until every lane has finished.
// Per-lane quota scaling models workload imbalance — the slow lanes gate
// the barrier, so budget given to them is worth more than budget given to
// lanes that will only wait. This is exactly the structure the OD-RL
// global reallocation layer is designed to exploit.
type BarrierApp struct {
	lanes      []*barrierLane
	work       Phase
	wait       Phase
	supersteps int
	// arrived counts the lanes waiting at the barrier: +1 when a lane
	// finishes its quota, back to 0 on release. The barrier opens when it
	// reaches len(lanes), so an arrival costs one comparison rather than a
	// scan of every lane's flag.
	arrived int
}

// barrierLane is one thread of the app.
type barrierLane struct {
	app       *BarrierApp
	quota     float64 // instructions per superstep for this lane
	remaining float64
	waiting   bool
}

// NewBarrierApp creates an n-lane app. quotaInstr is the nominal
// per-superstep instruction count; imbalance in [0,1) spreads per-lane
// quotas uniformly over [quota·(1−imb), quota·(1+imb)].
func NewBarrierApp(n int, work Phase, quotaInstr, imbalance float64, r *rng.RNG) (*BarrierApp, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: barrier app needs lanes, got %d", n)
	}
	if err := work.Validate(); err != nil {
		return nil, err
	}
	if quotaInstr <= 0 {
		return nil, fmt.Errorf("workload: non-positive quota %g", quotaInstr)
	}
	if imbalance < 0 || imbalance >= 1 {
		return nil, fmt.Errorf("workload: imbalance %g out of [0,1)", imbalance)
	}
	if r == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	app := &BarrierApp{
		work: work,
		// A waiting lane spins on a synchronisation variable: negligible
		// useful activity and no frequency sensitivity.
		wait: idlePhase(),
	}
	for i := 0; i < n; i++ {
		q := quotaInstr
		if imbalance > 0 {
			q *= 1 + imbalance*(2*r.Float64()-1)
		}
		app.lanes = append(app.lanes, &barrierLane{app: app, quota: q, remaining: q})
	}
	return app, nil
}

// Lane returns lane i's Source (a WorkSource).
func (a *BarrierApp) Lane(i int) WorkSource { return a.lanes[i] }

// Supersteps returns how many barrier releases have happened.
func (a *BarrierApp) Supersteps() int { return a.supersteps }

// maybeRelease opens the barrier when every lane has arrived.
func (a *BarrierApp) maybeRelease() bool {
	if a.arrived < len(a.lanes) {
		return false
	}
	a.arrived = 0
	for _, l := range a.lanes {
		l.waiting = false
		l.remaining = l.quota
	}
	a.supersteps++
	return true
}

// Phase implements Source.
func (l *barrierLane) Phase() Phase {
	if l.waiting {
		return l.app.wait
	}
	return l.app.work
}

// PhaseIndex implements Source: 0 = working, 1 = waiting. Phase is a pure
// function of it (the Source contract).
func (l *barrierLane) PhaseIndex() int {
	if l.waiting {
		return 1
	}
	return 0
}

// AdvanceWork implements WorkSource.
func (l *barrierLane) AdvanceWork(dt, instructions float64) int {
	if dt < 0 || instructions < 0 {
		panic(fmt.Sprintf("workload: negative advance (dt=%g, instr=%g)", dt, instructions))
	}
	changes := 0
	if !l.waiting {
		l.remaining -= instructions
		if l.remaining <= 0 {
			l.waiting = true
			l.app.arrived++
			changes++
		}
	}
	// The last arriving lane releases everyone, including itself.
	if l.waiting && l.app.maybeRelease() {
		changes++
	}
	return changes
}

// Advance implements Source for harnesses that do not feed instruction
// counts back; progress is approximated at the work phase's throughput at
// a nominal 2.5 GHz clock.
func (l *barrierLane) Advance(dt float64) int {
	const nominalHz = 2.5e9
	return l.AdvanceWork(dt, l.app.work.IPSAt(nominalHz)*dt)
}
