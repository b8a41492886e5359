// Package core implements the paper's primary contribution: WOHA's
// progress-based workflow scheduling. It glues together the client side —
// scheduling-plan generation with a resource cap (internal/plan) — and the
// master side — the Double Skip List priority queue (internal/dsl) driving a
// cluster.Policy that, on every idle slot, picks the workflow lagging
// furthest behind its progress requirements and that workflow's
// highest-ranked runnable job.
package core

import (
	"fmt"
	mbits "math/bits"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// QueueKind selects the inter-workflow queue backend (the Fig 13(a)
// comparison).
type QueueKind int

// Queue backends.
const (
	// QueueDSL is the paper's Double Skip List.
	QueueDSL QueueKind = iota
	// QueueBST is Algorithm 2 over balanced search trees.
	QueueBST
	// QueueNaive recomputes every workflow's priority per decision.
	QueueNaive
)

func (k QueueKind) String() string {
	switch k {
	case QueueDSL:
		return "DSL"
	case QueueBST:
		return "BST"
	case QueueNaive:
		return "Naive"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

func (k QueueKind) newQueue(seed int64) dsl.Queue {
	switch k {
	case QueueBST:
		return dsl.NewBST()
	case QueueNaive:
		return dsl.NewNaive()
	default:
		return dsl.New(seed)
	}
}

// Options configures a WOHA scheduler.
type Options struct {
	// Queue selects the priority-queue backend; the default is the DSL.
	Queue QueueKind
	// Seed drives the DSL's skip-list PRNG.
	Seed int64
	// ServeOverdueFirst keeps the paper's literal priority formula for
	// workflows whose deadlines have passed: their lag stays maximal
	// (total - rho), so they are served before everything else until they
	// finish. The default (false) demotes overdue workflows below every
	// still-achievable one, which prevents a single large miss from
	// cascading; see dsl.NewEntryDemoteOverdue.
	ServeOverdueFirst bool
	// NormalizedLag expresses each workflow's priority as its lag divided
	// by its planned total (parts per million) rather than an absolute task
	// count. The paper's formula is absolute, which lets task-rich
	// workflows outbid small ones under contention; normalization is the
	// natural "different scheduling objectives under the WOHA framework"
	// extension the paper's conclusion invites. Ablated in
	// BenchmarkAblationNormalizedLag.
	NormalizedLag bool
	// PolicyName annotates the scheduler name, e.g. "LPF" → "WOHA-LPF".
	// Plans normally carry the policy name already; this is a display
	// override for workflows scheduled without plans.
	PolicyName string
	// Obs attaches runtime observability to the scheduler's inter-workflow
	// queue (insert/delete/head-hit counts, lag recomputations, labeled by
	// the queue backend). nil disables instrumentation (the default).
	Obs *obs.Obs
}

// Scheduler is the WOHA progress-based workflow scheduler: a cluster.Policy
// that follows each workflow's scheduling plan.
type Scheduler struct {
	opts  Options
	queue dsl.Queue
	// byID maps a workflow's arrival index to its runtime state. Arrival
	// indices are dense, so the lookup tables are plain slices — every
	// decision and callback hits them, and map hashing was the scheduler's
	// dominant cost on the Fig 8 corpus.
	byID []*cluster.WorkflowState
	// sched maps a workflow's arrival index to its rank-ordered
	// schedulable-job index (see wfSched).
	sched []wfSched
	// schedulable counts tasks currently startable per slot type, so a
	// slot offer with no startable work anywhere returns without scanning
	// the queue — at tens of thousands of queued workflows the scan is
	// the dominant cost.
	schedulable [2]int
}

// wfSched is the per-workflow schedulable-job index, maintained purely from
// policy callbacks (JobActivated / ReducesReady / TaskStarted /
// TaskRequeued), which every control plane fires after mutating the job
// counters. Jobs are arranged by plan rank so the old O(jobs) bestJob scan
// becomes a find-first-set over a bitset of rank positions.
type wfSched struct {
	// order maps rank position to job ID, sorted by (plan rank, job ID) —
	// ranks need not be a permutation; pos is the inverse mapping.
	order []int32
	pos   []int32
	// bits[st] marks rank positions whose job can start a task of type st;
	// cnt[st] counts them. cnt[st] > 0 is mirrored into the queue entry's
	// startable mask, so the queue itself answers "most lagging workflow
	// with something to start on st".
	bits [2][]uint64
	cnt  [2]int32
}

// firstJob returns the schedulable job with the smallest (rank, ID); the
// caller guarantees cnt[st] > 0.
func (sc *wfSched) firstJob(st cluster.SlotType) workflow.JobID {
	for w, word := range sc.bits[st] {
		if word != 0 {
			p := w<<6 | mbits.TrailingZeros64(word)
			return workflow.JobID(sc.order[p])
		}
	}
	panic("core: schedulable count positive but bitset empty")
}

var (
	_ cluster.ReducePhasePolicy = (*Scheduler)(nil)
	_ cluster.RequeuePolicy     = (*Scheduler)(nil)
)

var _ cluster.Policy = (*Scheduler)(nil)

// NewScheduler returns a WOHA scheduler with the given options.
func NewScheduler(opts Options) *Scheduler {
	q := opts.Queue.newQueue(opts.Seed)
	q.Instrument(opts.Obs.NewQueueStats(opts.Queue.String()))
	return &Scheduler{opts: opts, queue: q}
}

// track records ws under its arrival index, growing the dense lookup tables
// as needed, and builds the workflow's schedulable-job index in the order of
// its plan ranking. All jobs start non-schedulable from the policy's point of
// view: JobActivated callbacks follow for root jobs.
func (s *Scheduler) track(ws *cluster.WorkflowState, ranks []int) {
	for ws.Index >= len(s.byID) {
		s.byID = append(s.byID, nil)
		s.sched = append(s.sched, wfSched{})
	}
	s.byID[ws.Index] = ws
	sc := &s.sched[ws.Index]
	n := len(ws.Jobs)
	sc.order = make([]int32, n)
	for i := range sc.order {
		sc.order[i] = int32(i)
	}
	sort.Slice(sc.order, func(a, b int) bool {
		ja, jb := sc.order[a], sc.order[b]
		if ranks[ja] != ranks[jb] {
			return ranks[ja] < ranks[jb]
		}
		return ja < jb
	})
	sc.pos = make([]int32, n)
	for p, j := range sc.order {
		sc.pos[j] = int32(p)
	}
	words := (n + 63) / 64
	sc.bits[0] = make([]uint64, words)
	sc.bits[1] = make([]uint64, words)
	sc.cnt = [2]int32{}
}

// refreshJob reconciles one job's bits in the workflow's schedulable index
// with its current counters, and the queue entry's startable mask with the
// index when a count leaves or reaches zero. Called from the policy
// callbacks, which every control plane fires after mutating the counters, so
// both are exact at every decision point.
func (s *Scheduler) refreshJob(ws *cluster.WorkflowState, job workflow.JobID) {
	sc := &s.sched[ws.Index]
	js := &ws.Jobs[job]
	p := uint(sc.pos[job])
	w, bit := p>>6, uint64(1)<<(p&63)
	for st := cluster.MapSlot; st <= cluster.ReduceSlot; st++ {
		has := sc.bits[st][w]&bit != 0
		if want := js.Schedulable(st); want != has {
			if want {
				sc.bits[st][w] |= bit
				if sc.cnt[st]++; sc.cnt[st] == 1 {
					s.queue.SetStartable(ws.Index, int(st), true)
				}
			} else {
				sc.bits[st][w] &^= bit
				if sc.cnt[st]--; sc.cnt[st] == 0 {
					s.queue.SetStartable(ws.Index, int(st), false)
				}
			}
		}
	}
}

// Name implements cluster.Policy. It includes the intra-workflow policy
// annotation when one is set, matching the paper's "WOHA-LPF" style labels.
func (s *Scheduler) Name() string {
	if s.opts.PolicyName != "" {
		return "WOHA-" + s.opts.PolicyName
	}
	return "WOHA"
}

// WorkflowAdded implements cluster.Policy: the workflow joins the DSL with
// the progress requirements from its plan. A workflow submitted without a
// plan is scheduled with an empty requirement list (it accrues priority only
// as it is starved relative to others' requirements) and job-ID ranking.
func (s *Scheduler) WorkflowAdded(ws *cluster.WorkflowState, now simtime.Time) {
	var reqs []plan.Req
	if ws.Plan != nil {
		reqs = ws.Plan.Reqs
		s.track(ws, ws.Plan.Ranks)
	} else {
		ids := make([]int, len(ws.Jobs))
		for i := range ids {
			ids[i] = i
		}
		s.track(ws, ids)
	}
	entry := dsl.NewEntryDemoteOverdue(ws.Index, ws.Spec.Deadline, reqs)
	if s.opts.ServeOverdueFirst {
		entry = dsl.NewEntry(ws.Index, ws.Spec.Deadline, reqs)
	}
	if s.opts.NormalizedLag {
		entry.Normalized()
	}
	s.queue.Add(entry, now)
}

// JobActivated implements cluster.Policy: the job's map tasks (or its
// reduces, for a map-less job) become startable.
func (s *Scheduler) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, _ simtime.Time) {
	spec := &ws.Spec.Jobs[job]
	if spec.Maps > 0 {
		s.schedulable[cluster.MapSlot] += spec.Maps
	} else {
		s.schedulable[cluster.ReduceSlot] += spec.Reduces
	}
	s.refreshJob(ws, job)
}

// ReducesReady implements cluster.ReducePhasePolicy: the job's reduce tasks
// become startable once its map phase completes.
func (s *Scheduler) ReducesReady(ws *cluster.WorkflowState, job workflow.JobID, _ simtime.Time) {
	s.schedulable[cluster.ReduceSlot] += ws.Jobs[job].PendingReduces
	s.refreshJob(ws, job)
}

// NextTask implements cluster.Policy: pick the workflow lagging furthest
// behind its progress requirement among those with a task to start on st,
// then its highest-ranked runnable job.
func (s *Scheduler) NextTask(now simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	if s.schedulable[st] == 0 {
		return nil, 0, false
	}
	e, ok := s.queue.BestStartable(now, int(st))
	if !ok {
		return nil, 0, false
	}
	return s.byID[e.ID], s.sched[e.ID].firstJob(st), true
}

// TaskStarted implements cluster.Policy: advance the workflow's true
// progress ρ in the queue (Algorithm 2 lines 20-23).
func (s *Scheduler) TaskStarted(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	s.schedulable[st]--
	s.refreshJob(ws, job)
	s.queue.Scheduled(ws.Index, now)
}

// TaskRequeued implements cluster.RequeuePolicy: a task lost to a node
// failure becomes startable again and the workflow's true progress rolls
// back by one, so its lag reflects the lost work.
func (s *Scheduler) TaskRequeued(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	s.schedulable[st]++
	s.refreshJob(ws, job)
	s.queue.Unscheduled(ws.Index, now)
}

// WorkflowCompleted implements cluster.Policy.
func (s *Scheduler) WorkflowCompleted(ws *cluster.WorkflowState, now simtime.Time) {
	s.queue.Remove(ws.Index, now)
	s.byID[ws.Index] = nil
	s.sched[ws.Index] = wfSched{}
}

// QueueLen reports the number of workflows currently queued (for tests and
// scalability experiments).
func (s *Scheduler) QueueLen() int { return s.queue.Len() }
