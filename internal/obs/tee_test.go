package obs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// probeRun samples the epochs its stride divides (none at stride 0) and
// logs what reaches it.
type probeRun struct {
	name   string
	stride int
	log    *[]string
}

func (p *probeRun) ShouldSample(e int) bool { return p.stride > 0 && e%p.stride == 0 }
func (p *probeRun) ObserveEpoch(ev *EpochEvent) {
	if p.log != nil {
		*p.log = append(*p.log, fmt.Sprintf("%s epoch %d", p.name, ev.Epoch))
	}
}
func (p *probeRun) End(metrics.Summary) { *p.log = append(*p.log, p.name+" end") }

// detailProbe answers WantsEpochDetail with wants.
type detailProbe struct {
	probeRun
	wants bool
}

func (p *detailProbe) WantsEpochDetail(int) bool { return p.wants }

// eventProbe takes faults, alerts and converged events.
type eventProbe struct{ probeRun }

func (p *eventProbe) ObserveFault(*FaultEvent) { *p.log = append(*p.log, p.name+" fault") }
func (p *eventProbe) ObserveAlert(*AlertEvent) { *p.log = append(*p.log, p.name+" alert") }
func (p *eventProbe) ObserveConverged(*ConvergedEvent) {
	*p.log = append(*p.log, p.name+" converged")
}

// TestTeeRuns drives epochs 0–3 through a tee the way sim.Run does
// (WantsEpochDetail only after a true ShouldSample), then one fault, alert
// and converged event, then End. answers reads "-" for an unsampled epoch,
// "s" for sampled without detail and "sd" for sampled with detail.
func TestTeeRuns(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members func(log *[]string) []RunObserver
		answers string
		log     []string
	}{
		{
			name: "members sample on their own strides",
			members: func(log *[]string) []RunObserver {
				return []RunObserver{
					&probeRun{name: "tracer", stride: 2, log: log},
					&detailProbe{probeRun: probeRun{name: "monitor", stride: 1, log: log}},
					&eventProbe{probeRun{name: "events", stride: 3, log: log}},
				}
			},
			answers: "sd s sd sd",
			log: []string{
				"tracer epoch 0", "monitor epoch 0", "events epoch 0",
				"monitor epoch 1",
				"tracer epoch 2", "monitor epoch 2",
				"monitor epoch 3", "events epoch 3",
				"events fault", "events alert", "events converged",
				"tracer end", "monitor end", "events end",
			},
		},
		{
			name: "only a member that sampled asks for detail",
			members: func(log *[]string) []RunObserver {
				return []RunObserver{
					&detailProbe{probeRun: probeRun{name: "lean", stride: 1, log: log}},
					&detailProbe{probeRun: probeRun{name: "rich", stride: 2, log: log}, wants: true},
				}
			},
			answers: "sd s sd s",
			log: []string{
				"lean epoch 0", "rich epoch 0", "lean epoch 1",
				"lean epoch 2", "rich epoch 2", "lean epoch 3",
				"lean end", "rich end",
			},
		},
		{
			name: "nobody samples",
			members: func(log *[]string) []RunObserver {
				return []RunObserver{
					&probeRun{name: "a", log: log},
					&eventProbe{probeRun{name: "b", log: log}},
				}
			},
			answers: "- - - -",
			log:     []string{"b fault", "b alert", "b converged", "a end", "b end"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log []string
			ro := TeeRuns(tc.members(&log)...)
			var answers []string
			for e := 0; e < 4; e++ {
				if !ro.ShouldSample(e) {
					answers = append(answers, "-")
					continue
				}
				a := "s"
				if ro.(EpochDetailSampler).WantsEpochDetail(e) {
					a = "sd"
				}
				answers = append(answers, a)
				ro.ObserveEpoch(&EpochEvent{Epoch: e})
			}
			ro.(FaultObserver).ObserveFault(&FaultEvent{})
			ro.(AlertObserver).ObserveAlert(&AlertEvent{})
			ro.(ConvergedObserver).ObserveConverged(&ConvergedEvent{})
			ro.End(metrics.Summary{})
			if got := strings.Join(answers, " "); got != tc.answers {
				t.Errorf("answers %q, want %q", got, tc.answers)
			}
			if !reflect.DeepEqual(log, tc.log) {
				t.Errorf("log\n%q\nwant\n%q", log, tc.log)
			}
		})
	}
}

// TestTeeCollapses: nil members are dropped, a single member is returned
// as is and none gives nil, for observers and runs alike; a tee of
// observers begins each member's run, in order.
func TestTeeCollapses(t *testing.T) {
	var log []string
	a, b := &probeRun{name: "a", log: &log}, &probeRun{name: "b", log: &log}
	if TeeRuns() != nil || TeeRuns(nil, nil) != nil || TeeRuns(nil, a, nil) != RunObserver(a) {
		t.Fatal("TeeRuns did not collapse nil and single members")
	}
	tr := NewTracer(NewWriterSink(&strings.Builder{}), TracerOptions{})
	if Tee() != nil || Tee(nil) != nil || Tee(nil, tr) != Observer(tr) {
		t.Fatal("Tee did not collapse nil and single members")
	}
	var metas []string
	obsOf := func(r RunObserver) Observer {
		return observerFunc(func(m RunMeta) RunObserver {
			metas = append(metas, m.Controller)
			return r
		})
	}
	ro := Tee(obsOf(a), nil, obsOf(b)).BeginRun(RunMeta{Controller: "pid"})
	ro.End(metrics.Summary{})
	if !reflect.DeepEqual(metas, []string{"pid", "pid"}) || !reflect.DeepEqual(log, []string{"a end", "b end"}) {
		t.Fatalf("BeginRun metas %q, log %q", metas, log)
	}
}

type observerFunc func(RunMeta) RunObserver

func (f observerFunc) BeginRun(m RunMeta) RunObserver { return f(m) }

// TestTeeEpochPathAllocatesNothing: the per-epoch methods are hot-path code.
func TestTeeEpochPathAllocatesNothing(t *testing.T) {
	ro := TeeRuns(
		&probeRun{stride: 2},
		&detailProbe{probeRun: probeRun{stride: 1}},
	)
	ds := ro.(EpochDetailSampler)
	ev := EpochEvent{}
	e := 0
	allocs := testing.AllocsPerRun(100, func() {
		if ro.ShouldSample(e) {
			ds.WantsEpochDetail(e)
			ev.Epoch = e
			ro.ObserveEpoch(&ev)
		}
		e++
	})
	if allocs != 0 {
		t.Fatalf("tee epoch path allocates %.1f/epoch, want 0", allocs)
	}
}
