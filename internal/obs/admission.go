package obs

import (
	"time"

	"repro/internal/simtime"
)

// AdmissionStats bundles the instruments of the admission front door
// (internal/admission): decision outcome counters, the counter-offer tally,
// commitment releases, and decision latency, all labeled with the controller
// mode. All methods are safe on a nil receiver, so controllers carry an
// AdmissionStats pointer unconditionally and the uninstrumented always-admit
// fast path pays one nil check (pinned at 0 allocs/decision by the alloc-pins
// target even when instrumented).
type AdmissionStats struct {
	Admitted      *Counter   `metric:"woha_admission_admitted_total" labels:"controller" help:"Workflow submissions admitted by the admission controller."`
	Deferred      *Counter   `metric:"woha_admission_deferred_total" labels:"controller" help:"Workflow submissions deferred to a later retry instant."`
	Rejected      *Counter   `metric:"woha_admission_rejected_total" labels:"controller" help:"Workflow submissions rejected by the admission controller."`
	CounterOffers *Counter   `metric:"woha_admission_counter_offers_total" labels:"controller" help:"Rejections carrying a counter-offered earliest feasible deadline."`
	Releases      *Counter   `metric:"woha_admission_releases_total" labels:"controller" help:"Capacity-ledger commitments released on workflow completion."`
	DecisionDur   *Histogram `metric:"woha_admission_decision_seconds" labels:"controller" buckets:"duration" help:"Wall-clock latency of one admission decision."`

	o *Obs
}

// NewAdmissionStats registers the admission instruments for one controller
// mode ("always", "feasible", "token-bucket"). Returns nil (disabled stats)
// on a nil receiver.
func (o *Obs) NewAdmissionStats(controller string) *AdmissionStats {
	if o == nil {
		return nil
	}
	return declare(o.reg, &AdmissionStats{o: o}, map[string][]string{"controller": {controller}})
}

// OnAdmitted records one admitted submission.
func (s *AdmissionStats) OnAdmitted(now simtime.Time, name string, dur time.Duration) {
	if s == nil {
		return
	}
	s.Admitted.Inc()
	s.DecisionDur.ObserveDuration(dur)
	s.o.Emit(Event{Kind: KindAdmissionAdmitted, Time: now, Workflow: -1, Job: -1,
		Tracker: -1, Slot: -1, Name: name, Dur: dur})
}

// OnDeferred records one deferred submission and its retry instant.
func (s *AdmissionStats) OnDeferred(now simtime.Time, name string, retryAt simtime.Time, dur time.Duration) {
	if s == nil {
		return
	}
	s.Deferred.Inc()
	s.DecisionDur.ObserveDuration(dur)
	s.o.Emit(Event{Kind: KindAdmissionDeferred, Time: now, Workflow: -1, Job: -1,
		Tracker: -1, Slot: -1, Name: name, Dur: retryAt.Sub(now)})
}

// OnRejected records one rejected submission; a non-zero counterOffer
// additionally counts toward woha_admission_counter_offers_total.
func (s *AdmissionStats) OnRejected(now simtime.Time, name, reason string, counterOffer simtime.Time, dur time.Duration) {
	if s == nil {
		return
	}
	s.Rejected.Inc()
	s.DecisionDur.ObserveDuration(dur)
	e := Event{Kind: KindAdmissionRejected, Time: now, Workflow: -1, Job: -1,
		Tracker: -1, Slot: -1, Name: name}
	if counterOffer > 0 {
		s.CounterOffers.Inc()
		e.N = 1
		e.Dur = counterOffer.Sub(now)
	}
	s.o.Emit(e)
}

// OnRelease records one capacity commitment released on completion.
func (s *AdmissionStats) OnRelease() {
	if s == nil {
		return
	}
	s.Releases.Inc()
}
