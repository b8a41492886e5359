package cluster

import (
	"time"

	"repro/internal/admission"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// The transitions below are the JobTracker's bookkeeping, written once for
// both control planes: the simulator and the live master call them and then
// tell the policy, the instruments and their own tallies what changed. The
// JobTracker keeps no schedulable index: each policy keeps its own, updated
// from the job's counters in the callbacks that follow a transition.

// StartTask moves one task of the job from pending to running on a slot of
// type st and returns the task's estimated duration.
func (ws *WorkflowState) StartTask(job workflow.JobID, st SlotType) time.Duration {
	js := &ws.Jobs[job]
	est := ws.Spec.Jobs[job].ReduceTime
	if st == MapSlot {
		js.PendingMaps--
		js.RunningMaps++
		est = ws.Spec.Jobs[job].MapTime
	} else {
		js.PendingReduces--
		js.RunningReduces++
	}
	ws.ScheduledTasks++
	ws.RunningTasks++
	return est
}

// FinishTask moves one running task of the job on a slot of type st to done
// at now. reducesReady reports that this ended the job's map phase with
// reduce tasks pending (the ReducePhasePolicy transition); jobDone that it
// was the job's last task, which happens once per job; done that it finished
// the workflow, and then Done and FinishTime are set.
func (ws *WorkflowState) FinishTask(job workflow.JobID, st SlotType, now simtime.Time) (reducesReady, jobDone, done bool) {
	js := &ws.Jobs[job]
	if st == MapSlot {
		js.RunningMaps--
		js.DoneMaps++
		reducesReady = js.MapsDone() && js.PendingReduces > 0
	} else {
		js.RunningReduces--
		js.DoneReduces++
	}
	ws.RunningTasks--
	if ws.TaskDone() == 0 && !ws.Done {
		ws.Done, ws.FinishTime = true, now
		done = true
	}
	return reducesReady, js.Completed(), done
}

// RequeueTask moves one running task of the job on a slot of type st back to
// pending, as when its TaskTracker fails, and returns the task's estimated
// duration. It is no longer counted as started.
func (ws *WorkflowState) RequeueTask(job workflow.JobID, st SlotType) time.Duration {
	js := &ws.Jobs[job]
	est := ws.Spec.Jobs[job].ReduceTime
	if st == MapSlot {
		js.RunningMaps--
		js.PendingMaps++
		est = ws.Spec.Jobs[job].MapTime
	} else {
		js.RunningReduces--
		js.PendingReduces++
	}
	ws.ScheduledTasks--
	ws.RunningTasks--
	return est
}

// ActivateJob makes the job Ready at now: its prerequisites (and submitter
// task, when modelled) have finished and its tasks may be scheduled.
func (ws *WorkflowState) ActivateJob(job workflow.JobID, now simtime.Time) {
	js := &ws.Jobs[job]
	js.Ready = true
	js.ActivatedAt = now
}

// ReadyDependents calls ready, in ascending ID order, for each dependent of
// the job whose last unfinished prerequisite the job was. Call it once per
// job, when FinishTask reports jobDone, so each dependent counts each
// prerequisite once. The dependents are not activated: the caller does that,
// at once or after a submitter task.
func (ws *WorkflowState) ReadyDependents(job workflow.JobID, ready func(workflow.JobID)) {
	for _, d := range ws.Spec.DependentsOf(job) {
		if ws.Jobs[d].unmet--; ws.Jobs[d].unmet == 0 {
			ready(d)
		}
	}
}

// Rule asks the admission front door adm about ws at now and applies its
// verdict; a nil adm admits. A Reject resolves ws without it ever reaching
// the policy: Rejected, RejectReason, CounterOffer and Done are set. A Defer
// returns when to ask again: the controller's RetryAt, but never before
// now+1, so a retry always lands at a later instant. An Admit changes
// nothing.
func (ws *WorkflowState) Rule(adm admission.Controller, now simtime.Time) (v admission.Verdict, retry simtime.Time) {
	if adm == nil {
		return admission.Admit, 0
	}
	d := adm.Decide(ws.Spec, ws.Plan, now)
	switch d.Verdict {
	case admission.Defer:
		retry = max(d.RetryAt, now+1)
	case admission.Reject:
		ws.Rejected, ws.RejectReason, ws.CounterOffer = true, d.Reason, d.CounterOffer
		ws.Done = true
	}
	return d.Verdict, retry
}

// Outcome returns the workflow's row of a run's result.
func (ws *WorkflowState) Outcome() WorkflowResult {
	wr := WorkflowResult{
		Name:     ws.Spec.Name,
		Index:    ws.Index,
		Release:  ws.Spec.Release,
		Deadline: ws.Spec.Deadline,
		Finish:   ws.FinishTime,
	}
	if ws.Rejected {
		wr.Rejected = true
		wr.RejectReason = ws.RejectReason
		wr.CounterOffer = ws.CounterOffer
		return wr
	}
	wr.Workspan = wr.Finish.Sub(wr.Release)
	if wr.Finish > wr.Deadline {
		wr.Tardiness = wr.Finish.Sub(wr.Deadline)
	}
	wr.Met = wr.Tardiness == 0
	return wr
}
