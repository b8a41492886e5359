package live

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// policyEvent kinds: each stands for the policy calls one workflow lifecycle
// transition makes, delivered when the event is applied.
type policyEventKind int

const (
	// evWorkflowReleased: the workflow's release time arrived; the policy
	// learns of it (WorkflowAdded) and of its root jobs (JobActivated).
	evWorkflowReleased policyEventKind = iota
	// evJobActivated: a dependent job's prerequisites all completed.
	evJobActivated
	// evReducesReady: a job's map phase finished with reduces pending.
	evReducesReady
	// evWorkflowCompleted: the workflow's last task finished.
	evWorkflowCompleted
)

// policyEvent is one workflow lifecycle transition recorded by a bookkeeping
// shard for later application to the policy. Events for the same workflow
// are pushed while holding its shard lock, so the queue preserves each
// workflow's transition order.
type policyEvent struct {
	kind policyEventKind
	wf   *liveWorkflow
	job  workflow.JobID
	now  simtime.Time
}

// policyCore owns the pluggable scheduling policy behind its own narrow
// lock. cluster.Policy implementations are contractually single-threaded, so
// every NextTask consultation and lifecycle notification runs under mu; the
// sharded tracker keeps that critical section to exactly the policy work by
// feeding it batched events instead of holding the lock across bookkeeping.
//
// Lock ordering: core.mu is always taken before the tracker's exclusive
// plane lock, and never while holding a shard lock.
type policyCore struct {
	mu  sync.Mutex
	pol cluster.Policy
	// reduces is pol's ReducePhasePolicy view, nil if unimplemented.
	reduces cluster.ReducePhasePolicy
	// home is the pooled order the last pipeline pass was combined for, and
	// homeAt that order's instant. sync.Pool keeps one order per P, so home
	// names the core whose caches hold the policy and workflow state; the
	// combiner writes both under mu, waiters read them (pipeline, grace).
	home   atomic.Pointer[pipeReq]
	homeAt atomic.Int64
}

func newPolicyCore(pol cluster.Policy) *policyCore {
	c := &policyCore{pol: pol}
	c.reduces, _ = pol.(cluster.ReducePhasePolicy)
	return c
}

// apply delivers one event's policy notifications and returns how many tasks
// the event made schedulable (the fast-path hint delta). The caller holds
// core.mu and the exclusive plane lock, so reading workflow state here is
// race-free, and the pipeline applies every queued event before its next
// NextTask, so the policy has heard of each transition before it chooses.
func (st *shardedTracker) apply(e *policyEvent) int64 {
	ws := e.wf.ws
	switch e.kind {
	case evWorkflowReleased:
		st.ins.WorkflowSubmitted(e.now, ws.Index, ws.Spec.Name)
		st.core.pol.WorkflowAdded(ws, e.now)
		var added int64
		for _, r := range ws.Spec.RootIDs() {
			added += st.notifyActivated(ws, r, e.now)
		}
		return added
	case evJobActivated:
		return st.notifyActivated(ws, e.job, e.now)
	case evReducesReady:
		if st.core.reduces != nil {
			st.core.reduces.ReducesReady(ws, e.job, e.now)
		}
		return int64(ws.Jobs[e.job].PendingReduces)
	case evWorkflowCompleted:
		var tardiness time.Duration
		if e.now > ws.Spec.Deadline {
			tardiness = e.now.Sub(ws.Spec.Deadline)
		}
		st.ins.WorkflowCompleted(e.now, ws.Index, ws.Spec.Name, tardiness)
		st.core.pol.WorkflowCompleted(ws, e.now)
		return 0
	}
	return 0
}

// notifyActivated announces an already-activated job (Ready was set by the
// bookkeeping shard) to the policy and returns its schedulable-task count: a
// job with maps contributes its pending maps; a map-less job starts with its
// reduces immediately schedulable.
func (st *shardedTracker) notifyActivated(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) int64 {
	js := &ws.Jobs[job]
	st.ins.JobActivated(now, ws.Index, int(job))
	st.core.pol.JobActivated(ws, job, now)
	if js.PendingMaps > 0 {
		return int64(js.PendingMaps)
	}
	return int64(js.PendingReduces)
}
