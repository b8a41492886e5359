package cluster

import (
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// InstrumentPolicy wraps pol so every NextTask decision is timed into the
// policy's labeled woha_scheduler_decision_seconds histogram. The wrapper
// forwards the optional ReducePhasePolicy and RequeuePolicy extensions only
// when pol implements them, so scheduling semantics are unchanged. With a nil
// o, pol is returned untouched.
func InstrumentPolicy(pol Policy, o *obs.Obs) Policy {
	if o == nil || pol == nil {
		return pol
	}
	return &instrumentedPolicy{Policy: pol, o: o, decide: o.Decisions.With(pol.Name())}
}

type instrumentedPolicy struct {
	Policy
	o      *obs.Obs
	decide *obs.Histogram
}

// The wrapper must forward every optional extension; the conditional
// forwarding below keeps behaviour identical for policies lacking them.
var (
	_ Policy            = (*instrumentedPolicy)(nil)
	_ ReducePhasePolicy = (*instrumentedPolicy)(nil)
	_ RequeuePolicy     = (*instrumentedPolicy)(nil)
)

func (p *instrumentedPolicy) NextTask(now simtime.Time, st SlotType) (*WorkflowState, workflow.JobID, bool) {
	t0 := time.Now()
	ws, job, ok := p.Policy.NextTask(now, st)
	p.decide.ObserveDuration(time.Since(t0))
	return ws, job, ok
}

func (p *instrumentedPolicy) ReducesReady(ws *WorkflowState, job workflow.JobID, now simtime.Time) {
	if rp, ok := p.Policy.(ReducePhasePolicy); ok {
		rp.ReducesReady(ws, job, now)
	}
}

func (p *instrumentedPolicy) TaskRequeued(ws *WorkflowState, job workflow.JobID, st SlotType, now simtime.Time) {
	if rq, ok := p.Policy.(RequeuePolicy); ok {
		rq.TaskRequeued(ws, job, st, now)
	}
}
