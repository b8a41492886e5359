package obs

import (
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/simtime"
)

// Obs bundles a metrics registry and an event sink into the instrumentation
// handle the schedulers, the simulator, and the live control plane carry. A
// nil *Obs disables everything: every method no-ops after one nil check and
// performs no allocation, so instrumentation can stay compiled into the hot
// paths (proven by BenchmarkHeartbeatBare).
type Obs struct {
	reg  *Registry
	sink EventSink

	// health is the optional deadline-health tracker (see health.go). It is
	// nil until EnableHealth and every feed method no-ops on a nil receiver,
	// so the hot paths stay at one extra nil check when health is off.
	health *HealthTracker

	// Pre-registered instruments for the hot paths. Fields are exported so
	// tests and callers can read them directly; all are nil-safe.
	HeartbeatDur         *Histogram     `metric:"woha_heartbeat_duration_seconds" buckets:"duration" help:"Wall-clock latency of one JobTracker heartbeat (scheduling decisions included)."`
	HeartbeatAssignments *Histogram     `metric:"woha_heartbeat_assignments" buckets:"count" help:"Tasks assigned per heartbeat served."`
	Heartbeats           *Counter       `metric:"woha_heartbeats_total" help:"Heartbeats served by the JobTracker."`
	TasksAssigned        *Counter       `metric:"woha_tasks_assigned_total" help:"Tasks assigned to slots."`
	TasksCompleted       *Counter       `metric:"woha_tasks_completed_total" help:"Tasks that finished successfully (lost and killed attempts excluded)."`
	WorkflowsSubmitted   *Counter       `metric:"woha_workflows_submitted_total" help:"Workflows released to the scheduling policy."`
	WorkflowsCompleted   *Counter       `metric:"woha_workflows_completed_total" help:"Workflows fully completed."`
	DeadlinesMissed      *Counter       `metric:"woha_workflows_deadline_missed_total" help:"Workflows that completed after their deadline."`
	QueueWorkflows       *Gauge         `metric:"woha_queue_workflows" help:"Workflows currently live in the scheduler."`
	PlanIters            *Histogram     `metric:"woha_plan_search_iterations" buckets:"iter" help:"Cap-search questions per capped plan, the whole-cluster question included."`
	PlansGenerated       *Counter       `metric:"woha_plans_generated_total" help:"Scheduling plans generated."`
	Decisions            Vec[Histogram] `metric:"woha_scheduler_decision_seconds" labels:"policy" buckets:"duration" help:"Wall-clock latency of one NextTask scheduling decision."`
	BuildInfo            *Gauge         `metric:"woha_build_info" labels:"version,go_version" help:"Build metadata of the exporting binary; the value is always 1."`
}

// New builds an instrumentation bundle over reg and sink; either may be nil
// (metrics-only, events-only). The standard woha_* instruments are
// registered eagerly so every exposition carries the full catalogue even
// before traffic arrives.
func New(reg *Registry, sink EventSink) *Obs {
	o := &Obs{reg: reg, sink: sink}
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	declare(reg, o, map[string][]string{"version": {version}, "go_version": {runtime.Version()}})
	o.BuildInfo.Set(1)
	return o
}

// Registry returns the underlying registry (nil when disabled).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// EnableHealth attaches the deadline-health tracker (see health.go) and
// returns it. Call before the control plane starts emitting traffic — the
// tracker is wired into the hot-path feed methods, not retrofitted onto a
// running stream. Enabling twice returns the existing tracker; a nil
// receiver returns nil (health disabled along with everything else). One
// tracker observes one run: sharing an enabled Obs across concurrent
// sessions would merge their per-workflow counters.
func (o *Obs) EnableHealth(cfg HealthConfig) *HealthTracker {
	if o == nil {
		return nil
	}
	if o.health == nil {
		o.health = newHealthTracker(o, cfg)
	}
	return o.health
}

// Health returns the deadline-health tracker, nil when never enabled. All
// HealthTracker methods are nil-safe, so callers can chain unconditionally:
// o.Health().Register(...).
func (o *Obs) Health() *HealthTracker {
	if o == nil {
		return nil
	}
	return o.health
}

// Emit sends e to the event sink, if any. Safe on a nil receiver.
func (o *Obs) Emit(e Event) {
	if o == nil || o.sink == nil {
		return
	}
	o.sink.Emit(e)
}

// HeartbeatServed records one answered heartbeat: latency and assignment
// histograms plus a KindHeartbeatServed event.
func (o *Obs) HeartbeatServed(now simtime.Time, tracker int, dur time.Duration, assigned int) {
	if o == nil {
		return
	}
	o.Heartbeats.Inc()
	o.HeartbeatDur.ObserveDuration(dur)
	o.HeartbeatAssignments.Observe(float64(assigned))
	o.Emit(Event{Kind: KindHeartbeatServed, Time: now, Workflow: -1, Job: -1,
		Tracker: tracker, Slot: -1, Dur: dur, N: assigned})
	o.health.tick(now)
}

// WorkflowSubmitted records a workflow's release to the policy.
func (o *Obs) WorkflowSubmitted(now simtime.Time, wf int, name string) {
	if o == nil {
		return
	}
	o.WorkflowsSubmitted.Inc()
	o.QueueWorkflows.Add(1)
	o.health.workflowReleased(wf)
	o.Emit(Event{Kind: KindWorkflowSubmitted, Time: now, Workflow: wf, Job: -1,
		Tracker: -1, Slot: -1, Name: name})
}

// WorkflowCompleted records a workflow finishing; tardiness > 0 additionally
// counts a deadline miss and emits KindDeadlineMissed.
func (o *Obs) WorkflowCompleted(now simtime.Time, wf int, name string, tardiness time.Duration) {
	if o == nil {
		return
	}
	o.WorkflowsCompleted.Inc()
	o.QueueWorkflows.Add(-1)
	o.health.workflowDone(wf, now)
	o.Emit(Event{Kind: KindWorkflowCompleted, Time: now, Workflow: wf, Job: -1,
		Tracker: -1, Slot: -1, Name: name, Dur: tardiness})
	if tardiness > 0 {
		o.DeadlinesMissed.Inc()
		o.Emit(Event{Kind: KindDeadlineMissed, Time: now, Workflow: wf, Job: -1,
			Tracker: -1, Slot: -1, Name: name, Dur: tardiness})
	}
}

// JobActivated records a job becoming schedulable.
func (o *Obs) JobActivated(now simtime.Time, wf, job int) {
	if o == nil {
		return
	}
	o.Emit(Event{Kind: KindJobActivated, Time: now, Workflow: wf, Job: job,
		Tracker: -1, Slot: -1})
}

// TaskAssigned records one task placed on a slot. tracker is the node index
// (-1 when unknown) and dur the task's virtual duration estimate.
func (o *Obs) TaskAssigned(now simtime.Time, wf, job, slot, tracker int, dur time.Duration) {
	if o == nil {
		return
	}
	o.TasksAssigned.Inc()
	o.health.taskScheduled(wf)
	o.Emit(Event{Kind: KindTaskAssigned, Time: now, Workflow: wf, Job: job,
		Tracker: tracker, Slot: slot, Dur: dur})
}

// TaskCompleted records one task finishing successfully. Lost and killed
// attempts must not be reported: the count feeds the health tracker's
// completed-task slack, which measures real progress. It also drives the
// health snapshot clock, so slack stays current even in instant-dispatch
// simulations that never serve a heartbeat.
func (o *Obs) TaskCompleted(now simtime.Time, wf, job, slot, tracker int) {
	if o == nil {
		return
	}
	o.TasksCompleted.Inc()
	o.health.taskCompleted(wf)
	o.Emit(Event{Kind: KindTaskCompleted, Time: now, Workflow: wf, Job: job,
		Tracker: tracker, Slot: slot})
	o.health.tick(now)
}

// PlanGenerated records one scheduling plan: the binary-search iteration
// histogram plus a KindPlanGenerated event.
func (o *Obs) PlanGenerated(now simtime.Time, name string, iters int) {
	if o == nil {
		return
	}
	o.PlansGenerated.Inc()
	o.PlanIters.Observe(float64(iters))
	o.Emit(Event{Kind: KindPlanGenerated, Time: now, Workflow: -1, Job: -1,
		Tracker: -1, Slot: -1, Name: name, N: iters})
}

// SimStats bundles the instruments of the cluster simulator
// (internal/cluster). The simulator holds it by value: the zero value is
// uninstrumented, and every handle in it is nil-safe.
type SimStats struct {
	Events Vec[Counter] `metric:"woha_sim_events_total" labels:"kind" help:"Discrete events processed by the cluster simulator."`
	Offers *Counter     `metric:"woha_sim_dispatch_offers_total" help:"Slot offers made to the scheduling policy (NextTask consultations)."`
	// Suppressed counts heartbeat ticks not executed, bound per reason:
	// "busy" (node fully occupied, woken by its next completion), "drained"
	// (all live workflows done, slept until the next arrival's tick) and
	// "quiescent" (node asleep until an event can change its answer; one
	// per tick slept through, flushed once per run).
	Suppressed  Vec[Counter] `metric:"woha_sim_dispatch_heartbeats_suppressed_total" labels:"reason" help:"Heartbeat re-arms suppressed by the simulator dispatch hot path."`
	SpecWakeups *Counter     `metric:"woha_sim_dispatch_spec_wakeups_total" help:"Retry events armed for the next straggler-threshold crossing."`
	// The rest are per-run tallies, flushed once at the end of Run.
	ArenaCapacity  *Gauge   `metric:"woha_sim_arena_capacity" help:"Attempt-arena record capacity after the latest simulator run."`
	ArenaReuses    *Counter `metric:"woha_sim_arena_attempt_reuses_total" help:"Attempt records recycled through the arena free list."`
	ArenaGrows     *Counter `metric:"woha_sim_arena_grows_total" help:"Attempt-arena backing array growths."`
	DrainBatches   *Counter `metric:"woha_sim_drain_batches_total" help:"Event-queue drains performed by the simulator (one per instant with queued events)."`
	DrainCoalesced *Counter `metric:"woha_sim_drain_coalesced_events_total" help:"Same-instant events coalesced into an existing drain batch."`
	SpecGateSkips  *Counter `metric:"woha_sim_spec_gate_skips_total" help:"Speculation passes skipped in O(1) because no attempt could be overdue and the wake-up was already armed."`
}

// NewSimStats registers the simulator instruments. Returns the zero
// (uninstrumented) bundle on a nil receiver.
func (o *Obs) NewSimStats() (s SimStats) {
	if o != nil {
		declare(o.reg, &s, nil)
	}
	return s
}

// QueueStats bundles the per-backend operation counters of an inter-workflow
// queue (the DSL vs naive comparison of Fig 13a, now observable at runtime).
// All methods are safe on a nil receiver, so queues carry a QueueStats
// pointer unconditionally and pay one nil check when uninstrumented.
type QueueStats struct {
	Inserts       *Counter `metric:"woha_queue_inserts_total" labels:"queue" help:"Workflow insertions into the inter-workflow queue."`
	Deletes       *Counter `metric:"woha_queue_deletes_total" labels:"queue" help:"Workflow deletions from the inter-workflow queue."`
	HeadHits      *Counter `metric:"woha_queue_head_hits_total" labels:"queue" help:"Best calls served from the priority-list head."`
	LagRecomputes *Counter `metric:"woha_queue_lag_recomputes_total" labels:"queue" help:"Per-entry lag recomputations during queue reads."`
	// NodeReuses counts pooled nodes recycled by the queue's backing sets
	// (free-list draws and in-place Moves) instead of fresh allocations;
	// BucketMoves counts O(1) bucket-to-bucket repositionings in the
	// bucketed lag index. Both are batch-flushed tallies with no per-event
	// emission — they fire on every hot-path operation.
	NodeReuses  *Counter `metric:"woha_queue_node_reuses_total" labels:"queue" help:"Pooled queue nodes reused instead of allocated."`
	BucketMoves *Counter `metric:"woha_queue_bucket_moves_total" labels:"queue" help:"Lag-index bucket-to-bucket entry moves."`

	o *Obs
}

// NewQueueStats registers the operation counters for the named queue
// backend. Returns nil (disabled stats) on a nil receiver.
func (o *Obs) NewQueueStats(queue string) *QueueStats {
	if o == nil {
		return nil
	}
	return declare(o.reg, &QueueStats{o: o}, map[string][]string{"queue": {queue}})
}

// OnInsert records a queue insertion.
func (q *QueueStats) OnInsert(now simtime.Time, id int) {
	if q == nil {
		return
	}
	q.Inserts.Inc()
	q.o.Emit(Event{Kind: KindQueueInsert, Time: now, Workflow: id, Job: -1, Tracker: -1, Slot: -1})
}

// OnDelete records a queue deletion.
func (q *QueueStats) OnDelete(now simtime.Time, id int) {
	if q == nil {
		return
	}
	q.Deletes.Inc()
	q.o.Emit(Event{Kind: KindQueueDelete, Time: now, Workflow: id, Job: -1, Tracker: -1, Slot: -1})
}

// OnHeadHit records a Best call served from the head after re-prioritizing
// settled entries.
func (q *QueueStats) OnHeadHit(now simtime.Time, id, settled int) {
	if q == nil {
		return
	}
	q.HeadHits.Inc()
	q.o.Emit(Event{Kind: KindQueueHeadHit, Time: now, Workflow: id, Job: -1,
		Tracker: -1, Slot: -1, N: settled})
}

// OnLagRecomputes adds n per-entry lag recomputations.
func (q *QueueStats) OnLagRecomputes(n int) {
	if q == nil {
		return
	}
	q.LagRecomputes.Add(int64(n))
}

// OnNodeReuses adds n pooled-node reuses (counter only; no event stream).
func (q *QueueStats) OnNodeReuses(n int) {
	if q == nil {
		return
	}
	q.NodeReuses.Add(int64(n))
}

// OnBucketMoves adds n lag-index bucket moves (counter only).
func (q *QueueStats) OnBucketMoves(n int) {
	if q == nil {
		return
	}
	q.BucketMoves.Add(int64(n))
}

// PlannerStats bundles the instruments of the plan-generation service
// (internal/planner): structural-cache effectiveness, probe accounting,
// request coalescing, and end-to-end plan latency. All methods are safe on a
// nil receiver, so the planner carries a PlannerStats pointer
// unconditionally.
type PlannerStats struct {
	Plans          *Counter `metric:"woha_planner_plans_total" help:"Plans served by the planner (cache hits included)."`
	CacheHits      *Counter `metric:"woha_planner_cache_hits_total" help:"Planner structural-cache hits."`
	CacheMisses    *Counter `metric:"woha_planner_cache_misses_total" help:"Planner structural-cache misses."`
	CacheEvictions *Counter `metric:"woha_planner_cache_evictions_total" help:"Plans evicted from the planner cache (LRU)."`
	// Probes counts the questions cap searches asked (Plan.SearchIters),
	// ProbesCut those answered "no" (the caps that missed the search target),
	// and Simulations the Algorithm 1 runs executed to answer them: the
	// search answers what it can from makespan bounds.
	Probes      *Counter   `metric:"woha_planner_probes_total" help:"Cap-search questions asked by planner cap searches, the whole-cluster question included."`
	ProbesCut   *Counter   `metric:"woha_planner_probes_cut_total" help:"Cap-search questions answered no: the cap missed the search target, by a run stopped there or by the lower bound."`
	Simulations *Counter   `metric:"woha_planner_simulations_total" help:"Algorithm 1 simulations executed by planner cap searches."`
	PlanDur     *Histogram `metric:"woha_planner_plan_duration_seconds" buckets:"duration" help:"Wall-clock latency of one planner request."`
	// Inflight and Coalesced are the singleflight leaders and waiters.
	Inflight  *Gauge   `metric:"woha_planner_inflight" help:"Plan generations currently in flight."`
	Coalesced *Counter `metric:"woha_planner_coalesced_total" help:"Plan requests served by waiting on a concurrent same-key generation."`
}

// NewPlannerStats registers the planner instruments. Returns nil (disabled
// stats) on a nil receiver.
func (o *Obs) NewPlannerStats() *PlannerStats {
	if o == nil {
		return nil
	}
	return declare(o.reg, &PlannerStats{}, nil)
}

// OnPlan records one served plan: latency plus whether the structural cache
// supplied it.
func (s *PlannerStats) OnPlan(dur time.Duration, cached bool) {
	if s == nil {
		return
	}
	s.Plans.Inc()
	s.PlanDur.ObserveDuration(dur)
	if cached {
		s.CacheHits.Inc()
	} else {
		s.CacheMisses.Inc()
	}
}

// OnPlanCoalesced records one request that neither hit the cache nor
// simulated: it waited on a concurrent in-flight generation of the same key.
// served is false when that generation failed — the wait still counts as
// coalesced, but no plan was served.
func (s *PlannerStats) OnPlanCoalesced(dur time.Duration, served bool) {
	if s == nil {
		return
	}
	s.Coalesced.Inc()
	if served {
		s.Plans.Inc()
		s.PlanDur.ObserveDuration(dur)
	}
}

// LiveStats bundles the instruments of the live JobTracker (internal/live):
// how often heartbeats complete on the lock-free fast path, and how long the
// others wait for the tracker's one lock. All methods are safe on a nil
// receiver, so the tracker carries a LiveStats pointer unconditionally and
// the uninstrumented hot path pays one nil check.
type LiveStats struct {
	LockWait *Histogram `metric:"woha_live_lock_wait_seconds" buckets:"duration" help:"Wait of a heartbeat for the JobTracker's lock before its report is booked."`
	// FastPathBeats counts heartbeats served without taking any lock (no
	// completions, no due releases, and no assignable work).
	FastPathBeats *Counter `metric:"woha_live_fastpath_heartbeats_total" help:"Heartbeats served entirely on the lock-free fast path."`
}

// NewLiveStats registers the live-tracker instruments. Returns nil
// (disabled stats) on a nil receiver.
func (o *Obs) NewLiveStats() *LiveStats {
	if o == nil {
		return nil
	}
	return declare(o.reg, &LiveStats{}, nil)
}

// OnLockWait records one heartbeat's wait for the JobTracker's lock.
func (s *LiveStats) OnLockWait(d time.Duration) {
	if s == nil {
		return
	}
	s.LockWait.ObserveDuration(d)
}

// OnFastPath records a heartbeat served without locks.
func (s *LiveStats) OnFastPath() {
	if s == nil {
		return
	}
	s.FastPathBeats.Inc()
}

// RunnerStats bundles the instruments of the parallel scenario runner
// (internal/runner): cell throughput, failures, and per-cell latency. All
// methods are safe on a nil receiver, so the runner carries a RunnerStats
// pointer unconditionally.
type RunnerStats struct {
	Cells        *Counter   `metric:"woha_runner_cells_total" help:"Scenario cells executed by the runner."`
	CellFailures *Counter   `metric:"woha_runner_cell_failures_total" help:"Scenario cells that returned an error."`
	Batches      *Counter   `metric:"woha_runner_batches_total" help:"Runner batch invocations (RunAll/RunEach)."`
	Inflight     *Gauge     `metric:"woha_runner_inflight" help:"Scenario cells currently executing."`
	CellDur      *Histogram `metric:"woha_runner_cell_duration_seconds" buckets:"duration" help:"Wall-clock latency of one scenario cell (plans + simulation)."`
}

// NewRunnerStats registers the runner instruments. Returns nil (disabled
// stats) on a nil receiver.
func (o *Obs) NewRunnerStats() *RunnerStats {
	if o == nil {
		return nil
	}
	return declare(o.reg, &RunnerStats{}, nil)
}

// OnBatch records one batch submission.
func (s *RunnerStats) OnBatch() {
	if s == nil {
		return
	}
	s.Batches.Inc()
}

// CellStarted marks a cell entering execution.
func (s *RunnerStats) CellStarted() {
	if s == nil {
		return
	}
	s.Inflight.Add(1)
}

// CellFinished records a completed cell: latency and failure accounting.
func (s *RunnerStats) CellFinished(dur time.Duration, failed bool) {
	if s == nil {
		return
	}
	s.Inflight.Add(-1)
	s.Cells.Inc()
	s.CellDur.ObserveDuration(dur)
	if failed {
		s.CellFailures.Inc()
	}
}
