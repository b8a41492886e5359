package scheduler_test

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// This file is the referee for the baselines' candidate sets: FIFO, Fair and
// EDF as they were when every NextTask rescanned the live workflows. Their
// scans are kept as written; per-job scans stand in for the workflow-level
// schedulable index they read, which the JobTracker no longer keeps.

// schedulable reports whether any job of ws can start a task on st.
func schedulable(ws *cluster.WorkflowState, st cluster.SlotType) bool {
	for i := range ws.Jobs {
		if ws.Jobs[i].Schedulable(st) {
			return true
		}
	}
	return false
}

// nextSchedulableJob returns the lowest job ID >= from whose job can start a
// task on st.
func nextSchedulableJob(ws *cluster.WorkflowState, st cluster.SlotType, from workflow.JobID) (workflow.JobID, bool) {
	for j := int(from); j < len(ws.Jobs); j++ {
		if ws.Jobs[j].Schedulable(st) {
			return workflow.JobID(j), true
		}
	}
	return 0, false
}

// scanBase provides the bookkeeping shared by the simple baselines: the live
// workflows held sorted by arrival index.
type scanBase struct {
	live []*cluster.WorkflowState
}

func (b *scanBase) init() {
	b.live = nil
}

func (b *scanBase) WorkflowAdded(ws *cluster.WorkflowState, _ simtime.Time) {
	i := sort.Search(len(b.live), func(k int) bool { return b.live[k].Index > ws.Index })
	b.live = append(b.live, nil)
	copy(b.live[i+1:], b.live[i:])
	b.live[i] = ws
}

func (b *scanBase) JobActivated(*cluster.WorkflowState, workflow.JobID, simtime.Time) {}

func (b *scanBase) TaskStarted(*cluster.WorkflowState, workflow.JobID, cluster.SlotType, simtime.Time) {
}

func (b *scanBase) WorkflowCompleted(ws *cluster.WorkflowState, _ simtime.Time) {
	i := sort.Search(len(b.live), func(k int) bool { return b.live[k].Index >= ws.Index })
	if i < len(b.live) && b.live[i] == ws {
		copy(b.live[i:], b.live[i+1:])
		b.live[len(b.live)-1] = nil
		b.live = b.live[:len(b.live)-1]
	}
}

// ordered returns the live workflows sorted by arrival index, for
// deterministic scans. Callers must not mutate the returned slice.
func (b *scanBase) ordered() []*cluster.WorkflowState {
	return b.live
}

// earliestSchedulableJob returns ws's Ready job with a pending task of type
// st that was activated first (ties by job ID) — Hadoop's per-job FIFO order
// within a workflow. Iterating the schedulable jobs visits them in ascending
// ID order, so keeping the first strictly-earlier activation preserves the
// tie-break.
func earliestSchedulableJob(ws *cluster.WorkflowState, st cluster.SlotType) (workflow.JobID, bool) {
	best := -1
	for j, ok := nextSchedulableJob(ws, st, 0); ok; j, ok = nextSchedulableJob(ws, st, j+1) {
		if best < 0 || ws.Jobs[j].ActivatedAt < ws.Jobs[best].ActivatedAt {
			best = int(j)
		}
	}
	if best < 0 {
		return 0, false
	}
	return workflow.JobID(best), true
}

// scanFIFO is the FIFO baseline's lazily compacted activation queue.
type scanFIFO struct {
	scanBase
	// queue holds (activation time, workflow, job) in submission order.
	// Activations arrive in non-decreasing time order, so appends keep it
	// sorted; exhausted jobs are dropped lazily during scans.
	queue []fifoEntry
}

type fifoEntry struct {
	ws  *cluster.WorkflowState
	job workflow.JobID
}

func newScanFIFO() *scanFIFO {
	f := &scanFIFO{}
	f.init()
	return f
}

func (f *scanFIFO) Name() string { return "FIFO" }

func (f *scanFIFO) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, _ simtime.Time) {
	f.queue = append(f.queue, fifoEntry{ws: ws, job: job})
}

// NextTask compacts and searches in one pass, returning the first
// schedulable entry. Only completed jobs are dropped — a fully scheduled job
// can re-enter the pending pool when a node failure re-queues its running
// tasks. Entries past the first hit keep their order and are compacted by a
// later call; a completed job is never schedulable, so deferring its removal
// cannot change a decision.
func (f *scanFIFO) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	w := 0
	for i, e := range f.queue {
		js := &e.ws.Jobs[e.job]
		if js.Completed() {
			continue
		}
		f.queue[w] = e
		w++
		if js.Schedulable(st) {
			n := copy(f.queue[w:], f.queue[i+1:])
			f.queue = f.queue[:w+n]
			return e.ws, e.job, true
		}
	}
	f.queue = f.queue[:w]
	return nil, 0, false
}

// scanFair is the Fair baseline's scan over every live workflow.
type scanFair struct {
	scanBase
}

func newScanFair() *scanFair {
	f := &scanFair{}
	f.init()
	return f
}

func (f *scanFair) Name() string { return "Fair" }

// NextTask picks, among all schedulable jobs, the one with the fewest
// running tasks (ties by activation time, then workflow index, then job ID).
func (f *scanFair) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	var (
		bestWS  *cluster.WorkflowState
		bestJob workflow.JobID
		found   bool
	)
	better := func(ws *cluster.WorkflowState, j workflow.JobID) bool {
		if !found {
			return true
		}
		a, b := &ws.Jobs[j], &bestWS.Jobs[bestJob]
		ar, br := a.RunningMaps+a.RunningReduces, b.RunningMaps+b.RunningReduces
		if ar != br {
			return ar < br
		}
		if a.ActivatedAt != b.ActivatedAt {
			return a.ActivatedAt < b.ActivatedAt
		}
		return false // earlier workflow/job in scan order wins remaining ties
	}
	for _, ws := range f.ordered() {
		for j, ok := nextSchedulableJob(ws, st, 0); ok; j, ok = nextSchedulableJob(ws, st, j+1) {
			if better(ws, j) {
				bestWS, bestJob, found = ws, j, true
			}
		}
	}
	return bestWS, bestJob, found
}

// scanEDF is the EDF baseline's scan over every live workflow.
type scanEDF struct {
	scanBase
}

func newScanEDF() *scanEDF {
	e := &scanEDF{}
	e.init()
	return e
}

func (e *scanEDF) Name() string { return "EDF" }

func (e *scanEDF) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	var best *cluster.WorkflowState
	for _, ws := range e.ordered() {
		if !schedulable(ws, st) {
			continue
		}
		if best == nil || ws.Spec.Deadline < best.Spec.Deadline {
			best = ws
		}
	}
	if best == nil {
		return nil, 0, false
	}
	job, ok := earliestSchedulableJob(best, st)
	return best, job, ok
}
