// Package scheduler implements the WorkflowScheduler policies evaluated in
// the WOHA paper: the progress-based WOHA scheduler (Section IV) plus the
// three ported baselines of Section V-B — Oozie+FIFO, Oozie+Fair, and EDF.
//
// All policies implement cluster.Policy and are consulted by the simulated
// JobTracker on every slot free-up. They are deliberately work-conserving:
// when the top-priority workflow has no task matching the idle slot type, the
// next workflow in priority order is offered the slot.
//
// Each baseline keeps, per slot type, the jobs that can start a task on it,
// ordered by its own key, so NextTask reads its answer off that set instead
// of rescanning every live workflow; the JobTracker keeps no index for them.
package scheduler

import (
	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// cand is one job of a candidate set. Sets are ordered by key, compared
// element by element, then by job ID. Each policy's key holds the FIFO
// sequence or the workflow's arrival index, so no two jobs compare equal.
type cand struct {
	key [3]int64
	ws  *cluster.WorkflowState
	job workflow.JobID
}

func (a *cand) less(b *cand) bool {
	for i := range a.key {
		if a.key[i] != b.key[i] {
			return a.key[i] < b.key[i]
		}
	}
	return a.job < b.job
}

// jobRec is a baseline's per-job record: in has bit st set while the slot
// type st set holds the job, and seq is the job's activation sequence (the
// FIFO key).
type jobRec struct {
	in  uint8
	seq int32
}

// base is the bookkeeping the three baselines share: per slot type, the jobs
// that can start a task on it, kept ordered by the policy's key. A job's
// startability changes only at a transition after which every control plane
// fires JobActivated, ReducesReady, TaskStarted or TaskRequeued, so
// refreshing the job from its current counters there keeps the sets exact at
// every NextTask — the rule core.Scheduler keeps its own index by.
type base struct {
	// key builds the job's ordering key; it is called only when the job
	// enters or leaves a set.
	key  func(ws *cluster.WorkflowState, job workflow.JobID) [3]int64
	sets [2][]cand
	// first[i] is where workflow i's records start in jobs.
	first []int32
	jobs  []jobRec
}

func (b *base) rec(ws *cluster.WorkflowState, job workflow.JobID) *jobRec {
	return &b.jobs[b.first[ws.Index]+int32(job)]
}

// refresh brings the job's membership of both sets in line with its
// counters.
func (b *base) refresh(ws *cluster.WorkflowState, job workflow.JobID) {
	r := b.rec(ws, job)
	js := &ws.Jobs[job]
	for st := cluster.MapSlot; st <= cluster.ReduceSlot; st++ {
		bit := uint8(1) << st
		want := js.Schedulable(st)
		if want == (r.in&bit != 0) {
			continue
		}
		r.in ^= bit
		c := cand{key: b.key(ws, job), ws: ws, job: job}
		set := b.sets[st]
		i, j := 0, len(set)
		for i < j {
			if h := int(uint(i+j) >> 1); set[h].less(&c) {
				i = h + 1
			} else {
				j = h
			}
		}
		if want {
			set = append(set, cand{})
			copy(set[i+1:], set[i:])
			set[i] = c
		} else {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = cand{}
			set = set[:len(set)-1]
		}
		b.sets[st] = set
	}
}

func (b *base) WorkflowAdded(ws *cluster.WorkflowState, _ simtime.Time) {
	for ws.Index >= len(b.first) {
		b.first = append(b.first, 0)
	}
	b.first[ws.Index] = int32(len(b.jobs))
	b.jobs = append(b.jobs, make([]jobRec, len(ws.Jobs))...)
}

func (b *base) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, _ simtime.Time) {
	b.refresh(ws, job)
}

// ReducesReady implements cluster.ReducePhasePolicy.
func (b *base) ReducesReady(ws *cluster.WorkflowState, job workflow.JobID, _ simtime.Time) {
	b.refresh(ws, job)
}

func (b *base) TaskStarted(ws *cluster.WorkflowState, job workflow.JobID, _ cluster.SlotType, _ simtime.Time) {
	b.refresh(ws, job)
}

// TaskRequeued implements cluster.RequeuePolicy.
func (b *base) TaskRequeued(ws *cluster.WorkflowState, job workflow.JobID, _ cluster.SlotType, _ simtime.Time) {
	b.refresh(ws, job)
}

// WorkflowCompleted needs no bookkeeping: a finished workflow's jobs have
// already left both sets.
func (b *base) WorkflowCompleted(*cluster.WorkflowState, simtime.Time) {}

// head returns the first job of the st set.
func (b *base) head(st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	if set := b.sets[st]; len(set) > 0 {
		return set[0].ws, set[0].job, true
	}
	return nil, 0, false
}

// FIFO is Oozie with Hadoop's default JobQueueTaskScheduler: jobs are
// submitted when their prerequisites finish and served strictly in submission
// order, with no awareness of workflow deadlines.
type FIFO struct {
	base
	// next is the activation sequence the next activated job gets.
	next int32
}

var (
	_ cluster.Policy            = (*FIFO)(nil)
	_ cluster.ReducePhasePolicy = (*FIFO)(nil)
	_ cluster.RequeuePolicy     = (*FIFO)(nil)
)

// NewFIFO returns the Oozie+FIFO baseline.
func NewFIFO() *FIFO {
	f := &FIFO{}
	f.key = func(ws *cluster.WorkflowState, job workflow.JobID) [3]int64 {
		return [3]int64{int64(f.rec(ws, job).seq)}
	}
	return f
}

// Name implements cluster.Policy.
func (f *FIFO) Name() string { return "FIFO" }

// JobActivated implements cluster.Policy: the job takes its place in the
// global queue at its Hadoop submission time, and keeps it when a node
// failure re-queues its tasks.
func (f *FIFO) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	f.rec(ws, job).seq = f.next
	f.next++
	f.base.JobActivated(ws, job, now)
}

// NextTask implements cluster.Policy: the earliest-submitted job with a task
// to start on st.
func (f *FIFO) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	return f.head(st)
}

// Fair mimics the Facebook FairScheduler as the paper ports it: "all running
// jobs evenly share the resources of the Hadoop cluster in a work conserving
// way". Sharing is per job — a workflow with many concurrently active jobs
// draws proportionally more of the cluster — and has no deadline awareness.
type Fair struct {
	base
}

var (
	_ cluster.Policy            = (*Fair)(nil)
	_ cluster.ReducePhasePolicy = (*Fair)(nil)
	_ cluster.RequeuePolicy     = (*Fair)(nil)
)

// NewFair returns the Oozie+Fair baseline.
func NewFair() *Fair {
	f := &Fair{}
	f.key = func(ws *cluster.WorkflowState, job workflow.JobID) [3]int64 {
		return [3]int64{int64(ws.Jobs[job].ActivatedAt), int64(ws.Index)}
	}
	return f
}

// Name implements cluster.Policy.
func (f *Fair) Name() string { return "Fair" }

// NextTask implements cluster.Policy: among all schedulable jobs, pick the
// one with the fewest running tasks (ties by activation time, then workflow
// index, then job ID — the set's order, so the first minimum wins and a job
// with none running ends the scan).
func (f *Fair) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	set := f.sets[st]
	if len(set) == 0 {
		return nil, 0, false
	}
	best, bestRun := 0, -1
	for i := range set {
		js := &set[i].ws.Jobs[set[i].job]
		if run := js.RunningMaps + js.RunningReduces; bestRun < 0 || run < bestRun {
			best, bestRun = i, run
			if run == 0 {
				break
			}
		}
	}
	return set[best].ws, set[best].job, true
}

// EDF assigns the highest priority to the workflow with the earliest
// deadline, following Verma et al.'s deadline-based Hadoop scheduling ported
// to whole workflows.
type EDF struct {
	base
}

var (
	_ cluster.Policy            = (*EDF)(nil)
	_ cluster.ReducePhasePolicy = (*EDF)(nil)
	_ cluster.RequeuePolicy     = (*EDF)(nil)
)

// NewEDF returns the EDF baseline.
func NewEDF() *EDF {
	e := &EDF{}
	e.key = func(ws *cluster.WorkflowState, job workflow.JobID) [3]int64 {
		return [3]int64{int64(ws.Spec.Deadline), int64(ws.Index), int64(ws.Jobs[job].ActivatedAt)}
	}
	return e
}

// Name implements cluster.Policy.
func (e *EDF) Name() string { return "EDF" }

// NextTask implements cluster.Policy: the earliest-deadline workflow with a
// task to start on st (ties by arrival index), and within it the job
// activated first (ties by job ID) — Hadoop's per-job FIFO order within a
// workflow. Both are the set's order, so the answer is its head.
func (e *EDF) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	return e.head(st)
}
