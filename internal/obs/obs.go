package obs

import (
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/simtime"
)

// Standard metric names (the contract OBSERVABILITY.md documents).
const (
	MetricHeartbeatDuration    = "woha_heartbeat_duration_seconds"
	MetricHeartbeatAssignments = "woha_heartbeat_assignments"
	MetricHeartbeats           = "woha_heartbeats_total"
	MetricTasksAssigned        = "woha_tasks_assigned_total"
	MetricTasksCompleted       = "woha_tasks_completed_total"
	MetricWorkflowsSubmitted   = "woha_workflows_submitted_total"
	MetricWorkflowsCompleted   = "woha_workflows_completed_total"
	MetricDeadlinesMissed      = "woha_workflows_deadline_missed_total"
	MetricQueueWorkflows       = "woha_queue_workflows"
	MetricPlanSearchIterations = "woha_plan_search_iterations"
	MetricPlansGenerated       = "woha_plans_generated_total"
	MetricDecisionDuration     = "woha_scheduler_decision_seconds"
	MetricSimEvents            = "woha_sim_events_total"
	MetricQueueInserts         = "woha_queue_inserts_total"
	MetricQueueDeletes         = "woha_queue_deletes_total"
	MetricQueueHeadHits        = "woha_queue_head_hits_total"
	MetricQueueLagRecomputes   = "woha_queue_lag_recomputes_total"
	MetricQueueNodeReuses      = "woha_queue_node_reuses_total"
	MetricQueueBucketMoves     = "woha_queue_bucket_moves_total"

	// Planner subsystem (internal/planner): cached, parallel plan generation.
	MetricPlannerPlans           = "woha_planner_plans_total"
	MetricPlannerCacheHits       = "woha_planner_cache_hits_total"
	MetricPlannerCacheMisses     = "woha_planner_cache_misses_total"
	MetricPlannerCacheEvictions  = "woha_planner_cache_evictions_total"
	MetricPlannerProbes          = "woha_planner_probes_total"
	MetricPlannerProbesCancelled = "woha_planner_probes_cancelled_total"
	MetricPlannerProbesCut       = "woha_planner_probes_cut_total"
	MetricPlannerPlanDuration    = "woha_planner_plan_duration_seconds"
	MetricPlannerInflight        = "woha_planner_inflight"
	MetricPlannerCoalesced       = "woha_planner_coalesced_total"
	MetricPlannerDupFills        = "woha_planner_duplicate_fills_total"

	// Simulator dispatch hot path (internal/cluster): slot-offer volume and
	// the work the free-slot index / overdue heap / heartbeat suppression
	// save.
	MetricSimDispatchOffers       = "woha_sim_dispatch_offers_total"
	MetricSimHeartbeatsSuppressed = "woha_sim_dispatch_heartbeats_suppressed_total"
	MetricSimSpecWakeups          = "woha_sim_dispatch_spec_wakeups_total"

	// Simulator memory layout (internal/cluster): attempt-arena occupancy
	// and the event batching of the struct-of-arrays core. Flushed once per
	// Run, not per event.
	MetricSimArenaCapacity  = "woha_sim_arena_capacity"
	MetricSimArenaReuses    = "woha_sim_arena_attempt_reuses_total"
	MetricSimArenaGrows     = "woha_sim_arena_grows_total"
	MetricSimDrainBatches   = "woha_sim_drain_batches_total"
	MetricSimDrainCoalesced = "woha_sim_drain_coalesced_events_total"

	// Simulator event loop in heartbeat mode (internal/cluster): how many
	// heartbeat arms rode the event queue's FIFO lane, how many fell back to
	// its heap, and how many speculation passes the O(1) gate answered.
	// Flushed once per Run, not per event.
	MetricSimEventLanePushes    = "woha_sim_event_lane_pushes_total"
	MetricSimEventLaneFallbacks = "woha_sim_event_lane_fallbacks_total"
	MetricSimSpecGateSkips      = "woha_sim_spec_gate_skips_total"

	// Runner subsystem (internal/runner): parallel scenario execution.
	MetricRunnerCells        = "woha_runner_cells_total"
	MetricRunnerCellFailures = "woha_runner_cell_failures_total"
	MetricRunnerBatches      = "woha_runner_batches_total"
	MetricRunnerInflight     = "woha_runner_inflight"
	MetricRunnerCellDuration = "woha_runner_cell_duration_seconds"

	// Sharded live control plane (internal/live): lock-wait distributions and
	// fast-path accounting of the admission/completion/assignment pipeline.
	MetricLiveShards           = "woha_live_shards"
	MetricLiveShardLockWait    = "woha_live_shard_lock_wait_seconds"
	MetricLivePipelineLockWait = "woha_live_pipeline_lock_wait_seconds"
	MetricLiveFastPathBeats    = "woha_live_fastpath_heartbeats_total"
	MetricLivePolicyBatches    = "woha_live_policy_event_batches_total"
	MetricLivePolicyEvents     = "woha_live_policy_events_total"
	MetricLivePipelinePasses   = "woha_live_pipeline_passes_total"
	MetricLivePipelineOrders   = "woha_live_pipeline_orders_total"

	// Deadline-health layer (health.go): per-workflow slack versus the
	// scheduling plan's progress requirement list, sampled on the snapshot
	// interval.
	MetricHealthMinSlack        = "woha_health_min_slack_tasks"
	MetricHealthBehind          = "woha_health_behind_workflows"
	MetricHealthSlackDist       = "woha_health_slack_tasks"
	MetricHealthLive            = "woha_health_live_workflows"
	MetricHealthSnapshots       = "woha_health_snapshots_total"
	MetricHealthFellBehind      = "woha_health_fell_behind_total"
	MetricHealthRecovered       = "woha_health_recovered_total"
	MetricHealthPredictedMisses = "woha_health_predicted_misses_total"

	// Admission front door (internal/admission): decision outcomes, the
	// deadline counter-offers attached to rejections, commitment releases,
	// and decision latency. All are labeled controller=<mode>.
	MetricAdmissionAdmitted         = "woha_admission_admitted_total"
	MetricAdmissionDeferred         = "woha_admission_deferred_total"
	MetricAdmissionRejected         = "woha_admission_rejected_total"
	MetricAdmissionCounterOffers    = "woha_admission_counter_offers_total"
	MetricAdmissionReleases         = "woha_admission_releases_total"
	MetricAdmissionDecisionDuration = "woha_admission_decision_seconds"

	// Federation layer (internal/federation): routing outcomes per member
	// cluster, load-snapshot freshness, and per-cluster load gauges
	// refreshed with the snapshots the routers decide on. Per-cluster
	// series are labeled cluster=<index>.
	MetricFedRouted           = "woha_fed_routed_total"
	MetricFedSnapshotAge      = "woha_fed_snapshot_age_seconds"
	MetricFedSnapshotRefresh  = "woha_fed_snapshot_refreshes_total"
	MetricFedClusters         = "woha_fed_clusters"
	MetricFedClusterActive    = "woha_fed_cluster_active_workflows"
	MetricFedClusterBacklog   = "woha_fed_cluster_backlog_seconds"
	MetricFedClusterFreeSlots = "woha_fed_cluster_free_slots"

	// Build metadata: a constant-1 gauge labeled with the binary's module
	// version and Go toolchain so scrapes are attributable.
	MetricBuildInfo = "woha_build_info"
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
	HeartbeatDur         *Histogram
	HeartbeatAssignments *Histogram
	Heartbeats           *Counter
	TasksAssigned        *Counter
	TasksCompleted       *Counter
	WorkflowsSubmitted   *Counter
	WorkflowsCompleted   *Counter
	DeadlinesMissed      *Counter
	QueueWorkflows       *Gauge
	PlanIters            *Histogram
	PlansGenerated       *Counter
}

// New builds an instrumentation bundle over reg and sink; either may be nil
// (metrics-only, events-only). The standard woha_* instruments are
// registered eagerly so every exposition carries the full catalogue even
// before traffic arrives.
func New(reg *Registry, sink EventSink) *Obs {
	o := &Obs{reg: reg, sink: sink}
	o.HeartbeatDur = reg.Histogram(MetricHeartbeatDuration,
		"Wall-clock latency of one JobTracker heartbeat (scheduling decisions included).", DurationBuckets)
	o.HeartbeatAssignments = reg.Histogram(MetricHeartbeatAssignments,
		"Tasks assigned per heartbeat served.", CountBuckets)
	o.Heartbeats = reg.Counter(MetricHeartbeats, "Heartbeats served by the JobTracker.")
	o.TasksAssigned = reg.Counter(MetricTasksAssigned, "Tasks assigned to slots.")
	o.TasksCompleted = reg.Counter(MetricTasksCompleted,
		"Tasks that finished successfully (lost and killed attempts excluded).")
	o.WorkflowsSubmitted = reg.Counter(MetricWorkflowsSubmitted,
		"Workflows released to the scheduling policy.")
	o.WorkflowsCompleted = reg.Counter(MetricWorkflowsCompleted, "Workflows fully completed.")
	o.DeadlinesMissed = reg.Counter(MetricDeadlinesMissed,
		"Workflows that completed after their deadline.")
	o.QueueWorkflows = reg.Gauge(MetricQueueWorkflows, "Workflows currently live in the scheduler.")
	o.PlanIters = reg.Histogram(MetricPlanSearchIterations,
		"Generate invocations per capped plan binary search.", IterBuckets)
	o.PlansGenerated = reg.Counter(MetricPlansGenerated, "Scheduling plans generated.")
	registerBuildInfo(reg)
	return o
}

// registerBuildInfo publishes the constant woha_build_info gauge: value 1,
// labeled with the main module's version and the Go toolchain, so every
// scrape identifies the binary that produced it.
func registerBuildInfo(reg *Registry) {
	if reg == nil {
		return
	}
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	reg.GaugeWith(MetricBuildInfo,
		"Build metadata of the exporting binary; the value is always 1.",
		Labels{"version": version, "go_version": runtime.Version()}).Set(1)
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

// DecisionHistogram returns the per-policy NextTask latency histogram
// (labeled policy=name), registering it on first use.
func (o *Obs) DecisionHistogram(policy string) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.HistogramWith(MetricDecisionDuration,
		"Wall-clock latency of one NextTask scheduling decision.",
		Labels{"policy": policy}, DurationBuckets)
}

// SimEventCounter returns the labeled simulator event counter for one event
// kind name, registering it on first use.
func (o *Obs) SimEventCounter(kind string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.CounterWith(MetricSimEvents,
		"Discrete events processed by the cluster simulator.", Labels{"kind": kind})
}

// SimDispatchOffers returns the counter of slot offers made to the policy
// (one per NextTask consultation), registering it on first use.
func (o *Obs) SimDispatchOffers() *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(MetricSimDispatchOffers,
		"Slot offers made to the scheduling policy (NextTask consultations).")
}

// SimHeartbeatsSuppressed returns the labeled counter of heartbeat re-arms
// the simulator skipped, registering it on first use. reason is "busy" (node
// fully occupied, woken by its next completion) or "drained" (all live
// workflows done, slept until the next arrival's tick).
func (o *Obs) SimHeartbeatsSuppressed(reason string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.CounterWith(MetricSimHeartbeatsSuppressed,
		"Heartbeat re-arms suppressed by the simulator dispatch hot path.",
		Labels{"reason": reason})
}

// SimSpecWakeups returns the counter of speculative-execution wake-up events
// armed, registering it on first use.
func (o *Obs) SimSpecWakeups() *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(MetricSimSpecWakeups,
		"Retry events armed for the next straggler-threshold crossing.")
}

// SimArenaCapacity returns the gauge of the simulator attempt arena's record
// capacity (high-water working set of the most recently finished run),
// registering it on first use.
func (o *Obs) SimArenaCapacity() *Gauge {
	if o == nil {
		return nil
	}
	return o.reg.Gauge(MetricSimArenaCapacity,
		"Attempt-arena record capacity after the latest simulator run.")
}

// SimArenaReuses returns the counter of attempt records served from the
// arena free list instead of fresh storage, registering it on first use.
func (o *Obs) SimArenaReuses() *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(MetricSimArenaReuses,
		"Attempt records recycled through the arena free list.")
}

// SimArenaGrows returns the counter of attempt-arena slice growths (backing
// array reallocations), registering it on first use.
func (o *Obs) SimArenaGrows() *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(MetricSimArenaGrows,
		"Attempt-arena backing array growths.")
}

// SimDrainBatches returns the counter of event-heap instant drains (one per
// distinct simulated instant with pending events), registering it on first
// use.
func (o *Obs) SimDrainBatches() *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(MetricSimDrainBatches,
		"Event-heap drains performed by the simulator (one per simulated instant).")
}

// SimDrainCoalesced returns the counter of events beyond the first in each
// drained batch — the heap pops the grid batching saved — registering it on
// first use.
func (o *Obs) SimDrainCoalesced() *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(MetricSimDrainCoalesced,
		"Same-instant events coalesced into an existing drain batch.")
}

// SimEventLanePushes returns the counter of heartbeat arms the event queue
// kept in its FIFO lane (O(1) push and pop), registering it on first use.
func (o *Obs) SimEventLanePushes() *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(MetricSimEventLanePushes,
		"Heartbeat arms that reached the event queue in firing order and rode its FIFO lane.")
}

// SimEventLaneFallbacks returns the counter of heartbeat arms that would
// have broken the lane's order and went to the heap instead, registering it
// on first use.
func (o *Obs) SimEventLaneFallbacks() *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(MetricSimEventLaneFallbacks,
		"Heartbeat arms earlier than the FIFO lane's tail, pushed to the event heap instead.")
}

// SimSpecGateSkips returns the counter of speculation passes that returned
// at the gate because no running attempt could be overdue yet, registering
// it on first use.
func (o *Obs) SimSpecGateSkips() *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(MetricSimSpecGateSkips,
		"Speculation passes skipped in O(1) because no attempt could be overdue and the wake-up was already armed.")
}

// QueueStats bundles the per-backend operation counters of an inter-workflow
// queue (the DSL vs naive comparison of Fig 13a, now observable at runtime).
// All methods are safe on a nil receiver, so queues carry a QueueStats
// pointer unconditionally and pay one nil check when uninstrumented.
type QueueStats struct {
	// Inserts, Deletes, HeadHits, and LagRecomputes are the labeled
	// counters (queue=<backend>).
	Inserts       *Counter
	Deletes       *Counter
	HeadHits      *Counter
	LagRecomputes *Counter
	// NodeReuses counts pooled nodes recycled by the queue's backing sets
	// (free-list draws and in-place Moves) instead of fresh allocations;
	// BucketMoves counts O(1) bucket-to-bucket repositionings in the
	// bucketed lag index. Both are batch-flushed tallies with no per-event
	// emission — they fire on every hot-path operation.
	NodeReuses  *Counter
	BucketMoves *Counter

	o *Obs
}

// NewQueueStats registers the operation counters for the named queue
// backend. Returns nil (disabled stats) on a nil receiver.
func (o *Obs) NewQueueStats(queue string) *QueueStats {
	if o == nil {
		return nil
	}
	l := Labels{"queue": queue}
	return &QueueStats{
		Inserts:       o.reg.CounterWith(MetricQueueInserts, "Workflow insertions into the inter-workflow queue.", l),
		Deletes:       o.reg.CounterWith(MetricQueueDeletes, "Workflow deletions from the inter-workflow queue.", l),
		HeadHits:      o.reg.CounterWith(MetricQueueHeadHits, "Best calls served from the priority-list head.", l),
		LagRecomputes: o.reg.CounterWith(MetricQueueLagRecomputes, "Per-entry lag recomputations during queue reads.", l),
		NodeReuses:    o.reg.CounterWith(MetricQueueNodeReuses, "Pooled queue nodes reused instead of allocated.", l),
		BucketMoves:   o.reg.CounterWith(MetricQueueBucketMoves, "Lag-index bucket-to-bucket entry moves.", l),
		o:             o,
	}
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
// (internal/planner): structural-cache effectiveness, speculative probe
// accounting, and end-to-end plan latency. All methods are safe on a nil
// receiver, so the planner carries a PlannerStats pointer unconditionally.
type PlannerStats struct {
	// Plans counts plans served (cache hits included).
	Plans *Counter
	// CacheHits, CacheMisses, and CacheEvictions describe the structural
	// plan cache.
	CacheHits      *Counter
	CacheMisses    *Counter
	CacheEvictions *Counter
	// Probes counts Algorithm 1 simulations executed by cap searches;
	// ProbesCancelled counts speculative probes skipped because a
	// concurrent result already narrowed the search past them; ProbesCut
	// counts executed probes that stopped at the search target instead of
	// simulating to completion (the probes whose cap missed it).
	Probes          *Counter
	ProbesCancelled *Counter
	ProbesCut       *Counter
	// PlanDur is the wall-clock latency of one planner request.
	PlanDur *Histogram
	// Inflight gauges key generations currently running; Coalesced counts
	// requests that blocked on a concurrent same-key generation instead of
	// simulating themselves (singleflight coalescing).
	Inflight  *Gauge
	Coalesced *Counter
	// DuplicateFills counts freshly generated plans the cache discarded
	// because a concurrent fill of the same key won the race. Coalescing
	// exists to hold this at zero; a nonzero value means same-key work was
	// simulated more than once and one result was thrown away.
	DuplicateFills *Counter
}

// NewPlannerStats registers the planner instruments. Returns nil (disabled
// stats) on a nil receiver.
func (o *Obs) NewPlannerStats() *PlannerStats {
	if o == nil {
		return nil
	}
	return &PlannerStats{
		Plans:          o.reg.Counter(MetricPlannerPlans, "Plans served by the planner (cache hits included)."),
		CacheHits:      o.reg.Counter(MetricPlannerCacheHits, "Planner structural-cache hits."),
		CacheMisses:    o.reg.Counter(MetricPlannerCacheMisses, "Planner structural-cache misses."),
		CacheEvictions: o.reg.Counter(MetricPlannerCacheEvictions, "Plans evicted from the planner cache (LRU)."),
		Probes:         o.reg.Counter(MetricPlannerProbes, "Algorithm 1 simulations executed by planner cap searches."),
		ProbesCancelled: o.reg.Counter(MetricPlannerProbesCancelled,
			"Speculative probes cancelled before running because the search had already narrowed past them."),
		ProbesCut: o.reg.Counter(MetricPlannerProbesCut,
			"Executed probes that stopped at the search target instead of simulating to completion."),
		PlanDur: o.reg.Histogram(MetricPlannerPlanDuration,
			"Wall-clock latency of one planner request.", DurationBuckets),
		Inflight: o.reg.Gauge(MetricPlannerInflight, "Plan generations currently in flight."),
		Coalesced: o.reg.Counter(MetricPlannerCoalesced,
			"Plan requests served by waiting on a concurrent same-key generation."),
		DuplicateFills: o.reg.Counter(MetricPlannerDupFills,
			"Freshly generated plans discarded because a concurrent same-key fill won."),
	}
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

// LiveStats bundles the instruments of the sharded live JobTracker
// (internal/live): how often heartbeats complete on the lock-free fast path,
// how long they wait for workflow-shard and assignment-pipeline locks, and
// how policy events batch. All methods are safe on a nil receiver, so the
// tracker carries a LiveStats pointer unconditionally and the uninstrumented
// hot path pays one nil check.
type LiveStats struct {
	// Shards reports the configured shard count.
	Shards *Gauge
	// ShardLockWait is the wait to acquire one workflow shard's lock during
	// completion/admission bookkeeping.
	ShardLockWait *Histogram
	// PipelineLockWait is how long a heartbeat bound for the assignment
	// pipeline waited: until it held the policy-core lock, or until the
	// heartbeat holding it had served its report.
	PipelineLockWait *Histogram
	// PipelinePasses counts holds of the pipeline locks that served queued
	// reports; PipelineOrders the reports served. Orders per pass above one
	// is heartbeats being answered by the heartbeat ahead of them.
	PipelinePasses *Counter
	PipelineOrders *Counter
	// FastPathBeats counts heartbeats served without taking any lock (no
	// completions, no due releases, and no assignable work).
	FastPathBeats *Counter
	// PolicyBatches counts event-queue drains; PolicyEvents the lifecycle
	// events those drains carried to the policy core.
	PolicyBatches *Counter
	PolicyEvents  *Counter
}

// NewLiveStats registers the sharded live-tracker instruments and records
// the shard count. Returns nil (disabled stats) on a nil receiver.
func (o *Obs) NewLiveStats(shards int) *LiveStats {
	if o == nil {
		return nil
	}
	s := &LiveStats{
		Shards: o.reg.Gauge(MetricLiveShards, "Workflow-state shards in the live JobTracker."),
		ShardLockWait: o.reg.Histogram(MetricLiveShardLockWait,
			"Wait to acquire a workflow shard's lock during heartbeat bookkeeping.", DurationBuckets),
		PipelineLockWait: o.reg.Histogram(MetricLivePipelineLockWait,
			"Wait of a heartbeat to enter the assignment pipeline or to be served by the heartbeat holding it.", DurationBuckets),
		PipelinePasses: o.reg.Counter(MetricLivePipelinePasses,
			"Holds of the assignment pipeline's locks that served queued heartbeat reports."),
		PipelineOrders: o.reg.Counter(MetricLivePipelineOrders,
			"Heartbeat reports served by the assignment pipeline."),
		FastPathBeats: o.reg.Counter(MetricLiveFastPathBeats,
			"Heartbeats served entirely on the lock-free fast path."),
		PolicyBatches: o.reg.Counter(MetricLivePolicyBatches,
			"Policy event-queue drains by the assignment pipeline."),
		PolicyEvents: o.reg.Counter(MetricLivePolicyEvents,
			"Workflow lifecycle events delivered to the policy core."),
	}
	s.Shards.Set(int64(shards))
	return s
}

// OnShardLockWait records one shard-lock acquisition wait.
func (s *LiveStats) OnShardLockWait(d time.Duration) {
	if s == nil {
		return
	}
	s.ShardLockWait.ObserveDuration(d)
}

// OnPipelineLockWait records one heartbeat's wait for the assignment pipeline.
func (s *LiveStats) OnPipelineLockWait(d time.Duration) {
	if s == nil {
		return
	}
	s.PipelineLockWait.ObserveDuration(d)
}

// OnPipelinePass records one hold of the pipeline locks that served orders
// queued reports.
func (s *LiveStats) OnPipelinePass(orders int) {
	if s == nil {
		return
	}
	s.PipelinePasses.Inc()
	s.PipelineOrders.Add(int64(orders))
}

// OnFastPath records a heartbeat served without locks.
func (s *LiveStats) OnFastPath() {
	if s == nil {
		return
	}
	s.FastPathBeats.Inc()
}

// OnEventBatch records one event-queue drain delivering n events.
func (s *LiveStats) OnEventBatch(n int) {
	if s == nil {
		return
	}
	s.PolicyBatches.Inc()
	s.PolicyEvents.Add(int64(n))
}

// RunnerStats bundles the instruments of the parallel scenario runner
// (internal/runner): cell throughput, failures, and per-cell latency. All
// methods are safe on a nil receiver, so the runner carries a RunnerStats
// pointer unconditionally.
type RunnerStats struct {
	// Cells counts scenario cells executed; CellFailures those that
	// returned an error.
	Cells        *Counter
	CellFailures *Counter
	// Batches counts RunAll/RunEach invocations.
	Batches *Counter
	// Inflight gauges cells currently executing.
	Inflight *Gauge
	// CellDur is the wall-clock latency of one scenario cell.
	CellDur *Histogram
}

// NewRunnerStats registers the runner instruments. Returns nil (disabled
// stats) on a nil receiver.
func (o *Obs) NewRunnerStats() *RunnerStats {
	if o == nil {
		return nil
	}
	return &RunnerStats{
		Cells:        o.reg.Counter(MetricRunnerCells, "Scenario cells executed by the runner."),
		CellFailures: o.reg.Counter(MetricRunnerCellFailures, "Scenario cells that returned an error."),
		Batches:      o.reg.Counter(MetricRunnerBatches, "Runner batch invocations (RunAll/RunEach)."),
		Inflight:     o.reg.Gauge(MetricRunnerInflight, "Scenario cells currently executing."),
		CellDur: o.reg.Histogram(MetricRunnerCellDuration,
			"Wall-clock latency of one scenario cell (plans + simulation).", DurationBuckets),
	}
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
