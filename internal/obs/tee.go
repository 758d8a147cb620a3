package obs

import "repro/internal/metrics"

// Tee returns an Observer whose runs hand every event to each given
// observer's run, in order (see TeeRuns); no other observer forwards
// events. Nil observers are dropped; one left is returned as is, none gives
// nil.
func Tee(observers ...Observer) Observer {
	switch kept := nonNil(observers); len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return teeObserver(kept)
	}
}

type teeObserver []Observer

func (t teeObserver) BeginRun(meta RunMeta) RunObserver {
	runs := make([]RunObserver, len(t))
	for i, o := range t {
		runs[i] = o.BeginRun(meta)
	}
	return TeeRuns(runs...)
}

// TeeRuns is Tee for one run's observers, each sampling on its own stride:
// ShouldSample is true when any member samples the epoch, ObserveEpoch
// reaches the members that did, and WantsEpochDetail is true when one of
// them wants detail (a member without the EpochDetailSampler method always
// does). Fault, alert and converged events reach every member that takes
// them, and End every member, in order. Nil runs are dropped as in Tee.
// The tee allocates here, never per epoch.
func TeeRuns(runs ...RunObserver) RunObserver {
	switch kept := nonNil(runs); len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		t := &teeRun{members: make([]teeMember, len(kept))}
		for i, r := range kept {
			t.members[i].run = r
			t.members[i].detail, _ = r.(EpochDetailSampler)
		}
		return t
	}
}

// nonNil returns in without its nil members.
func nonNil[T comparable](in []T) []T {
	var null T
	var out []T
	for _, x := range in {
		if x != null {
			out = append(out, x)
		}
	}
	return out
}

type teeMember struct {
	run     RunObserver
	detail  EpochDetailSampler // nil when run takes detail on every sampled epoch
	sampled bool               // run's ShouldSample answer for the current epoch
}

type teeRun struct{ members []teeMember }

// ShouldSample implements RunObserver.
//
//odrl:hotpath
func (t *teeRun) ShouldSample(epoch int) bool {
	sampled := false
	for i := range t.members {
		m := &t.members[i]
		m.sampled = m.run.ShouldSample(epoch)
		sampled = sampled || m.sampled
	}
	return sampled
}

// WantsEpochDetail implements EpochDetailSampler.
//
//odrl:hotpath
func (t *teeRun) WantsEpochDetail(epoch int) bool {
	for i := range t.members {
		m := &t.members[i]
		if m.sampled && (m.detail == nil || m.detail.WantsEpochDetail(epoch)) {
			return true
		}
	}
	return false
}

// ObserveEpoch implements RunObserver.
//
//odrl:hotpath
func (t *teeRun) ObserveEpoch(ev *EpochEvent) {
	for i := range t.members {
		if m := &t.members[i]; m.sampled {
			m.run.ObserveEpoch(ev)
		}
	}
}

// each calls f with every member that implements T, in order.
func each[T any](t *teeRun, f func(T)) {
	for _, m := range t.members {
		if o, ok := m.run.(T); ok {
			f(o)
		}
	}
}

// ObserveFault implements FaultObserver.
func (t *teeRun) ObserveFault(ev *FaultEvent) {
	each(t, func(o FaultObserver) { o.ObserveFault(ev) })
}

// ObserveAlert implements AlertObserver.
func (t *teeRun) ObserveAlert(ev *AlertEvent) {
	each(t, func(o AlertObserver) { o.ObserveAlert(ev) })
}

// ObserveConverged implements ConvergedObserver.
func (t *teeRun) ObserveConverged(ev *ConvergedEvent) {
	each(t, func(o ConvergedObserver) { o.ObserveConverged(ev) })
}

// End implements RunObserver.
func (t *teeRun) End(s metrics.Summary) { each(t, func(r RunObserver) { r.End(s) }) }
