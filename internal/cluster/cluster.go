// Package cluster simulates the Hadoop-1 control plane that WOHA extends:
// a single JobTracker scheduling map and reduce tasks onto the typed slots of
// many TaskTrackers, driven by discrete events.
//
// The simulation reproduces every scheduling decision point of the real
// system: workflows arrive at their release times, a job's tasks become
// schedulable when its prerequisites finish (Oozie's submission rule, or
// WOHA's on-demand submitter maps), reduce tasks wait for the job's map
// phase to complete, and the pluggable Policy — the WorkflowScheduler of the
// paper — is consulted whenever slots idle. Task durations come from the
// per-job estimates in the workflow spec, optionally perturbed by seeded
// multiplicative noise to model estimation error.
//
// Two dispatch modes are supported. With HeartbeatInterval zero the
// JobTracker reacts to every task completion immediately (the fine-grained
// mode used by the experiments, equivalent to heartbeats arriving "just in
// time"). With a positive interval each TaskTracker reports idle slots only
// on its periodic heartbeat, as in Hadoop-1.
package cluster

import (
	mbits "math/bits"
	"time"

	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// SlotType distinguishes Hadoop-1's two slot kinds.
type SlotType int

// The two slot types.
const (
	MapSlot SlotType = iota
	ReduceSlot
)

// String returns "map" or "reduce".
func (s SlotType) String() string {
	if s == MapSlot {
		return "map"
	}
	return "reduce"
}

// Config describes the simulated cluster.
type Config struct {
	// Nodes is the number of TaskTrackers.
	Nodes int
	// MapSlotsPerNode and ReduceSlotsPerNode give each TaskTracker's slot
	// counts (the paper's testbed ran 2 map slots and 1 reduce slot per
	// server).
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// HeartbeatInterval enables heartbeat-driven dispatch when positive;
	// zero means the JobTracker schedules on every completion event.
	HeartbeatInterval time.Duration
	// SubmitterOverhead models WOHA's map-only submitter job: each wjob
	// becomes schedulable this long after its prerequisites finish,
	// standing in for the submitter map task that loads jar files and
	// initializes the job on a slave node. Zero activates jobs instantly.
	SubmitterOverhead time.Duration
	// Noise perturbs each task's duration uniformly in
	// [1-Noise, 1+Noise] times its estimate, modeling estimation error.
	// Must be in [0, 1).
	Noise float64
	// Seed drives all randomness (noise only; the simulator is otherwise
	// deterministic).
	Seed int64
	// Failures schedules TaskTracker outages. When a node fails, its
	// running tasks are lost and re-queued as pending (Hadoop re-executes
	// tasks of failed trackers), and its slots disappear until recovery.
	Failures []Failure

	// Replication enables data-locality modeling for map tasks: each
	// assignment is data-local with probability 1-(1-1/Nodes)^Replication
	// (uniform HDFS block placement with this replication factor). Zero
	// disables locality modeling entirely.
	Replication int
	// RemotePenalty multiplies a non-local map task's duration (network
	// read instead of local disk). Values below 1 are rejected; typical
	// is 1.2-1.5. Ignored when Replication is zero.
	RemotePenalty float64
	// DelayScheduling makes the JobTracker hold a slot back from a
	// non-local assignment until the job has waited this long for a local
	// one, following Zaharia et al.'s delay scheduling. Zero accepts
	// remote assignments immediately.
	DelayScheduling time.Duration

	// StragglerProb injects one-sided stragglers: each task attempt
	// independently runs StragglerFactor times longer than its (noisy)
	// duration with this probability, modeling the swapping and contention
	// outliers that motivate speculative execution. Zero disables.
	StragglerProb float64
	// StragglerFactor is the straggler slowdown multiple (> 1).
	StragglerFactor float64

	// SpeculativeSlowdown enables speculative execution: when slots idle
	// with no pending work, a running task whose elapsed time exceeds
	// SpeculativeSlowdown times its estimate gets a duplicate attempt on a
	// free slot; the first finisher wins and the loser is killed. Zero
	// disables speculation. Values at or below 1 are rejected.
	SpeculativeSlowdown float64
}

// Failure is one scripted TaskTracker outage.
type Failure struct {
	// Node is the failing TaskTracker's index.
	Node int
	// At is the failure instant.
	At simtime.Time
	// Downtime is how long the node stays dead; zero means it never
	// recovers.
	Downtime time.Duration
}

// MapSlots returns the cluster-wide map slot count.
func (c Config) MapSlots() int { return c.Nodes * c.MapSlotsPerNode }

// ReduceSlots returns the cluster-wide reduce slot count.
func (c Config) ReduceSlots() int { return c.Nodes * c.ReduceSlotsPerNode }

// TotalSlots returns the total slot count, the "maximum number of slots in
// the system" a WOHA client queries when generating a plan.
func (c Config) TotalSlots() int { return c.MapSlots() + c.ReduceSlots() }

// JobState is the runtime state of one wjob.
type JobState struct {
	// ID is the job's index within its workflow.
	ID workflow.JobID
	// Ready reports whether the job's prerequisites (and submitter task,
	// when modeled) have finished, making its tasks schedulable.
	Ready bool
	// ActivatedAt is when Ready became true (the job's Hadoop submission
	// time under Oozie semantics). Meaningless while !Ready.
	ActivatedAt simtime.Time

	// PendingMaps counts map tasks not yet started; RunningMaps started
	// but unfinished; DoneMaps finished. Likewise for reduces.
	PendingMaps, RunningMaps, DoneMaps          int
	PendingReduces, RunningReduces, DoneReduces int

	// unmet counts unfinished prerequisite jobs.
	unmet int
	// delayedSince marks when the job first declined a non-local map
	// assignment under delay scheduling (zero = not waiting).
	delayedSince simtime.Time
}

// MapsDone reports whether the job's map phase has fully completed,
// unblocking its reduce tasks.
func (js *JobState) MapsDone() bool { return js.RunningMaps == 0 && js.PendingMaps == 0 }

// Completed reports whether every task of the job has finished.
func (js *JobState) Completed() bool {
	return js.MapsDone() && js.PendingReduces == 0 && js.RunningReduces == 0
}

// Schedulable reports whether the job can start a task on a slot of type st
// right now.
func (js *JobState) Schedulable(st SlotType) bool {
	if !js.Ready {
		return false
	}
	if st == MapSlot {
		return js.PendingMaps > 0
	}
	return js.PendingReduces > 0 && js.MapsDone()
}

// WorkflowState is the runtime state of one submitted workflow, shared
// between the simulator and the scheduling policy.
type WorkflowState struct {
	// Index is the workflow's arrival index, unique within a run.
	Index int
	// Spec is the immutable workflow definition.
	Spec *workflow.Workflow
	// Plan is the WOHA scheduling plan, nil under non-WOHA policies.
	Plan *plan.Plan
	// Jobs holds per-job runtime state, indexed by JobID.
	Jobs []JobState

	// ScheduledTasks is the true progress ρ: tasks started so far.
	ScheduledTasks int
	// RunningTasks counts currently executing tasks (Fair scheduling key).
	RunningTasks int
	// remaining counts tasks not yet finished; the workflow completes when
	// it reaches zero.
	remaining int

	// Done and FinishTime record completion.
	Done       bool
	FinishTime simtime.Time

	// Rejected marks a workflow the admission controller turned away: it is
	// Done without ever reaching the policy, RejectReason names the stage
	// that refused it, and CounterOffer (when non-zero) is the earliest
	// feasible deadline offered back. All zero under the default
	// always-admit front door.
	Rejected     bool
	RejectReason string
	CounterOffer simtime.Time

	// schedCnt counts, per slot type, the jobs currently able to start a
	// task; schedJobs is the matching bitset over job IDs. Both exist only
	// when the owning control plane opted in via EnableSchedIndex and calls
	// RefreshJob after every JobState counter mutation; otherwise
	// Schedulable falls back to the per-job scan. The frozen refsim oracle
	// never opts in, so its behaviour is untouched by construction.
	schedCnt  [2]int32
	schedJobs [2][]uint64
}

// NewWorkflowState builds the runtime state for one submitted workflow:
// per-job pending counters seeded from the spec, unmet-prerequisite counts,
// and the remaining-task countdown. Both control planes — the discrete-event
// simulator and the live JobTracker — construct state through here so the
// invariants (Jobs indexed by JobID, remaining = total tasks) are enforced
// in one place.
func NewWorkflowState(index int, w *workflow.Workflow, p *plan.Plan) *WorkflowState {
	ws := &WorkflowState{}
	initWorkflowState(ws, make([]JobState, len(w.Jobs)), index, w, p)
	return ws
}

// initWorkflowState initializes *ws in place over the given jobs storage
// (len(jobs) == len(w.Jobs)); the simulator's workflow arena reuses records
// through here with the same invariants NewWorkflowState enforces. Every
// field is overwritten, so recycled storage needs no prior clearing.
func initWorkflowState(ws *WorkflowState, jobs []JobState, index int, w *workflow.Workflow, p *plan.Plan) {
	*ws = WorkflowState{
		Index: index,
		Spec:  w,
		Plan:  p,
		Jobs:  jobs,
	}
	for i := range w.Jobs {
		jobs[i] = JobState{
			ID:             workflow.JobID(i),
			PendingMaps:    w.Jobs[i].Maps,
			PendingReduces: w.Jobs[i].Reduces,
			unmet:          len(w.Jobs[i].Prereqs),
		}
		ws.remaining += w.Jobs[i].Tasks()
	}
}

// TaskDone consumes one finished task and returns how many remain; zero
// means this completion finished the workflow. Call exactly once per task
// completion, under whatever synchronization guards ws — the counter makes
// workflow-finish detection O(1) instead of a scan over every job.
func (ws *WorkflowState) TaskDone() int {
	ws.remaining--
	return ws.remaining
}

// TasksRemaining reports the number of tasks not yet finished.
func (ws *WorkflowState) TasksRemaining() int { return ws.remaining }

// Schedulable reports whether any job of the workflow can start a task on a
// slot of type st. O(1) when the owning control plane maintains the
// schedulable index; a per-job scan otherwise.
func (ws *WorkflowState) Schedulable(st SlotType) bool {
	if ws.schedJobs[st] != nil {
		return ws.schedCnt[st] > 0
	}
	for i := range ws.Jobs {
		if ws.Jobs[i].Schedulable(st) {
			return true
		}
	}
	return false
}

// EnableSchedIndex activates the per-slot-type schedulable index over the
// given bitset storage (nil allocates; otherwise words must hold at least
// 2 × ⌈len(Jobs)/64⌉ entries — the simulator passes arena-carved storage so
// steady-state submission stays allocation-free). The control plane that
// enables the index owns its maintenance: RefreshJob must be called after
// every mutation of a job's Ready flag or pending/running counters, before
// any policy consults the workflow.
func (ws *WorkflowState) EnableSchedIndex(words []uint64) {
	n := (len(ws.Jobs) + 63) / 64
	if words == nil {
		words = make([]uint64, 2*n)
	}
	for i := range words[:2*n] {
		words[i] = 0
	}
	ws.schedJobs[MapSlot] = words[:n:n]
	ws.schedJobs[ReduceSlot] = words[n : 2*n : 2*n]
	ws.schedCnt = [2]int32{}
	for j := range ws.Jobs {
		ws.RefreshJob(workflow.JobID(j))
	}
}

// RefreshJob reconciles the schedulable index with job's current state. It
// is idempotent and state-based, so callers may refresh conservatively; a
// no-op when the index is not enabled.
func (ws *WorkflowState) RefreshJob(job workflow.JobID) {
	if ws.schedJobs[MapSlot] == nil {
		return
	}
	js := &ws.Jobs[job]
	w, bit := uint(job)>>6, uint64(1)<<(uint(job)&63)
	for st := MapSlot; st <= ReduceSlot; st++ {
		has := ws.schedJobs[st][w]&bit != 0
		if want := js.Schedulable(st); want != has {
			if want {
				ws.schedJobs[st][w] |= bit
				ws.schedCnt[st]++
			} else {
				ws.schedJobs[st][w] &^= bit
				ws.schedCnt[st]--
			}
		}
	}
}

// NextSchedulableJob returns the lowest job ID >= from whose job can start a
// task of type st. With the index enabled it walks the bitset a word at a
// time; otherwise it scans. Iterating via successive calls visits jobs in
// ascending ID order — the tie-break order of the policies' scans.
func (ws *WorkflowState) NextSchedulableJob(st SlotType, from workflow.JobID) (workflow.JobID, bool) {
	set := ws.schedJobs[st]
	if set == nil {
		for j := int(from); j < len(ws.Jobs); j++ {
			if ws.Jobs[j].Schedulable(st) {
				return workflow.JobID(j), true
			}
		}
		return 0, false
	}
	w := int(from) >> 6
	if w >= len(set) {
		return 0, false
	}
	word := set[w] &^ ((uint64(1) << (uint(from) & 63)) - 1)
	for {
		if word != 0 {
			return workflow.JobID(w<<6 | mbits.TrailingZeros64(word)), true
		}
		w++
		if w >= len(set) {
			return 0, false
		}
		word = set[w]
	}
}

// Policy is the pluggable WorkflowScheduler consulted by the JobTracker.
// Implementations are single-threaded: the simulator never calls a Policy
// concurrently.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// WorkflowAdded announces a newly arrived workflow. Its root jobs are
	// not yet Ready; JobActivated follows for each job as it becomes
	// submittable.
	WorkflowAdded(ws *WorkflowState, now simtime.Time)
	// JobActivated announces that ws.Jobs[job] became Ready.
	JobActivated(ws *WorkflowState, job workflow.JobID, now simtime.Time)
	// NextTask picks the workflow and job that should receive an idle slot
	// of type st, or ok == false to leave the slot idle. The simulator
	// guarantees the returned job is Schedulable(st).
	//
	// Whether a slot type has a task (ok) is a function of the
	// WorkflowStates the policy was handed: it may change only when a
	// workflow arrives, a job activates, a job's map phase ends, a task is
	// requeued or a task starts — from false to true only at one of the
	// first four, since a task starting takes work away. now may order the
	// candidates but not withhold them: delay scheduling lives in the
	// simulator, and a tick it refuses is not quiescent. Heartbeat mode
	// relies on this to leave out the ticks of a node the policy has just
	// refused (Simulator.rearmHeartbeat).
	NextTask(now simtime.Time, st SlotType) (ws *WorkflowState, job workflow.JobID, ok bool)
	// TaskStarted confirms a task of ws.Jobs[job] was placed on a slot.
	TaskStarted(ws *WorkflowState, job workflow.JobID, st SlotType, now simtime.Time)
	// WorkflowCompleted announces that every task of ws has finished.
	WorkflowCompleted(ws *WorkflowState, now simtime.Time)
}

// RequeuePolicy is an optional extension of Policy: the simulator notifies
// implementations when a running task is lost to a TaskTracker failure and
// returns to the pending pool, so schedulable-task accounting stays exact.
type RequeuePolicy interface {
	Policy
	// TaskRequeued fires once per task lost to a node failure.
	TaskRequeued(ws *WorkflowState, job workflow.JobID, st SlotType, now simtime.Time)
}

// ReducePhasePolicy is an optional extension of Policy: the simulator
// notifies implementations the moment a job's map phase completes and its
// reduce tasks become schedulable, letting the policy keep exact
// schedulable-task counts instead of rescanning on every slot offer.
type ReducePhasePolicy interface {
	Policy
	// ReducesReady fires when ws.Jobs[job] finishes its map phase with
	// reduce tasks pending.
	ReducesReady(ws *WorkflowState, job workflow.JobID, now simtime.Time)
}

// Observer receives task lifecycle callbacks for metrics collection. A nil
// Observer is allowed everywhere one is accepted.
type Observer interface {
	// TaskStarted fires when a task begins executing.
	TaskStarted(now simtime.Time, wf *WorkflowState, job workflow.JobID, st SlotType, dur time.Duration)
	// TaskFinished fires when a task completes.
	TaskFinished(now simtime.Time, wf *WorkflowState, job workflow.JobID, st SlotType)
}
