package workload

import (
	"fmt"

	"repro/internal/rng"
)

// JobSystem models a multiprogrammed server chip: jobs arrive in a shared
// queue as a Poisson process, each needing an exponentially distributed
// number of instructions; an idle core pops the next job and runs it to
// completion. Progress is instruction-coupled (a throttled core takes
// longer), and cores with no job sit in a near-idle clock-gated phase.
// This is the latency-vs-power scenario of power capping in datacentres:
// the cap throttles service rate, queueing delay responds non-linearly.
type JobSystem struct {
	r              *rng.RNG
	arrivalRate    float64 // jobs per second (whole system)
	meanJobInstr   float64
	work           Phase
	idle           Phase
	lanes          []*jobLane
	queue          []job
	clockS         float64
	nextArrivalS   float64
	pendingTicks   int
	completed      int
	totalLatencyS  float64
	totalQueuedMax int
}

type job struct {
	remaining float64
	arrivalS  float64
}

type jobLane struct {
	sys     *JobSystem
	current *job
}

// NewJobSystem creates a job system serviced by n cores. work is the phase
// jobs execute; arrivalRate is system-wide jobs/second; meanJobInstr is
// the mean job length in instructions.
func NewJobSystem(n int, work Phase, arrivalRate, meanJobInstr float64, r *rng.RNG) (*JobSystem, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: job system needs cores, got %d", n)
	}
	if err := work.Validate(); err != nil {
		return nil, err
	}
	if arrivalRate <= 0 || meanJobInstr <= 0 {
		return nil, fmt.Errorf("workload: invalid rate %g or job size %g", arrivalRate, meanJobInstr)
	}
	if r == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	s := &JobSystem{
		r:            r,
		arrivalRate:  arrivalRate,
		meanJobInstr: meanJobInstr,
		work:         work,
		// A jobless core is clock-gated: almost no switching activity and
		// no frequency sensitivity.
		idle: Phase{Class: Idle, BaseCPI: 1.0, MPKI: 30, MemLatencyNs: 100, Activity: 0.02},
	}
	s.nextArrivalS = s.r.ExpFloat64() / s.arrivalRate
	for i := 0; i < n; i++ {
		s.lanes = append(s.lanes, &jobLane{sys: s})
	}
	return s, nil
}

// Lane returns core i's workload source.
func (s *JobSystem) Lane(i int) WorkSource { return s.lanes[i] }

// Completed returns the number of finished jobs.
func (s *JobSystem) Completed() int { return s.completed }

// MeanLatencyS returns the average arrival-to-completion latency of the
// finished jobs, or 0 before any completion.
func (s *JobSystem) MeanLatencyS() float64 {
	if s.completed == 0 {
		return 0
	}
	return s.totalLatencyS / float64(s.completed)
}

// Queued returns the current backlog (queued jobs not yet running).
func (s *JobSystem) Queued() int { return len(s.queue) }

// MaxQueued returns the worst backlog observed.
func (s *JobSystem) MaxQueued() int { return s.totalQueuedMax }

// ResetStats clears completion statistics (e.g. after warmup) while
// keeping the queue and in-flight jobs intact.
func (s *JobSystem) ResetStats() {
	s.completed = 0
	s.totalLatencyS = 0
	s.totalQueuedMax = len(s.queue)
}

// tick advances the shared clock once all lanes have reported the epoch.
// The harness must step every lane with the same dt for the accounting to
// be exact (the simulator does).
func (s *JobSystem) tick(dt float64) {
	s.pendingTicks++
	if s.pendingTicks < len(s.lanes) {
		return
	}
	s.pendingTicks = 0
	s.clockS += dt
	for s.nextArrivalS <= s.clockS {
		s.queue = append(s.queue, job{
			remaining: s.r.ExpFloat64() * s.meanJobInstr,
			arrivalS:  s.nextArrivalS,
		})
		s.nextArrivalS += s.r.ExpFloat64() / s.arrivalRate
	}
	if len(s.queue) > s.totalQueuedMax {
		s.totalQueuedMax = len(s.queue)
	}
}

// Phase implements Source.
func (l *jobLane) Phase() Phase {
	if l.current == nil {
		return l.sys.idle
	}
	return l.sys.work
}

// PhaseIndex implements Source: 0 = running a job, 1 = idle. Phase is a
// pure function of it (the Source contract).
func (l *jobLane) PhaseIndex() int {
	if l.current == nil {
		return 1
	}
	return 0
}

// AdvanceWork implements WorkSource.
func (l *jobLane) AdvanceWork(dt, instructions float64) int {
	if dt < 0 || instructions < 0 {
		panic(fmt.Sprintf("workload: negative advance (dt=%g, instr=%g)", dt, instructions))
	}
	changes := 0
	if l.current != nil {
		l.current.remaining -= instructions
		if l.current.remaining <= 0 {
			l.sys.completed++
			l.sys.totalLatencyS += (l.sys.clockS + dt) - l.current.arrivalS
			l.current = nil
			changes++
		}
	}
	l.sys.tick(dt)
	if l.current == nil && len(l.sys.queue) > 0 {
		j := l.sys.queue[0]
		l.sys.queue = l.sys.queue[1:]
		l.current = &j
		changes++
	}
	return changes
}

// Advance implements Source with nominal-throughput progress (see
// barrierLane.Advance).
func (l *jobLane) Advance(dt float64) int {
	const nominalHz = 2.5e9
	instr := 0.0
	if l.current != nil {
		instr = l.sys.work.IPSAt(nominalHz) * dt
	}
	return l.AdvanceWork(dt, instr)
}
