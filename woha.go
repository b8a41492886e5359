package woha

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/runner"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Re-exported model types. The internal packages own the implementations;
// these aliases are the supported public surface.
type (
	// Workflow is a deadline-constrained DAG of Map-Reduce jobs. Its job
	// table is frozen at first use (planning, validation, submission);
	// Name, Release, Deadline and Tenant stay assignable, and Clone is the
	// way to edit one already in use.
	Workflow = workflow.Workflow
	// Job is one Map-Reduce job ("wjob") inside a workflow.
	Job = workflow.Job
	// JobID indexes a job within its workflow.
	JobID = workflow.JobID
	// Builder constructs workflows fluently; see NewWorkflow.
	Builder = workflow.Builder

	// Plan is a WOHA scheduling plan: job ranks plus the progress
	// requirement list F(ttd). A plan is read-only once generated — one
	// served by a Planner or a Session is shared with every other request
	// for the same key — so Clone it before writing to it.
	Plan = plan.Plan
	// PlanReq is one progress requirement entry.
	PlanReq = plan.Req
	// PlanCaps is a typed slot-capacity pair (map and reduce pools), used by
	// AdmissionConfig.Cluster and the typed planner entry points.
	PlanCaps = plan.Caps

	// ClusterConfig describes the simulated Hadoop-1 cluster.
	ClusterConfig = cluster.Config
	// Failure is one scripted TaskTracker outage (see ClusterConfig.Failures).
	Failure = cluster.Failure
	// Result aggregates a simulation run.
	Result = cluster.Result
	// WorkflowResult records one workflow's outcome.
	WorkflowResult = cluster.WorkflowResult
	// Policy is the pluggable WorkflowScheduler interface; implement it to
	// bring your own scheduler, as the paper's framework intends.
	Policy = cluster.Policy
	// Observer receives task lifecycle callbacks.
	Observer = cluster.Observer
	// SlotType distinguishes map and reduce slots.
	SlotType = cluster.SlotType
	// WorkflowState is the runtime state a Policy sees.
	WorkflowState = cluster.WorkflowState

	// Time is an instant in virtual time.
	Time = simtime.Time

	// Timeline records per-workflow slot allocation over time.
	Timeline = metrics.Timeline

	// PriorityPolicy orders jobs within a workflow (HLF, LPF, MPF).
	PriorityPolicy = priority.Policy

	// Instrumentation bundles the runtime observability layer: a metrics
	// registry plus an event sink. Pass it via WithInstrumentation; see
	// OBSERVABILITY.md.
	Instrumentation = obs.Obs
	// Metrics is a registry of counters, gauges and histograms with
	// Prometheus text exposition (WriteTo / Handler).
	Metrics = obs.Registry
	// ObsEvent is one typed scheduler event (see EventSink).
	ObsEvent = obs.Event
	// EventSink receives the structured scheduler event stream.
	EventSink = obs.EventSink
	// EventRing is a bounded in-memory EventSink keeping the newest events.
	EventRing = obs.Ring
	// EventKind discriminates ObsEvent records.
	EventKind = obs.Kind

	// HealthConfig shapes the deadline-health tracker; enable it with
	// Instrumentation.EnableHealth before a run starts.
	HealthConfig = obs.HealthConfig
	// HealthTracker computes per-workflow slack against the scheduling
	// plan's progress requirements on a configurable snapshot interval.
	HealthTracker = obs.HealthTracker
	// HealthSnapshot is one immutable point-in-time health view (the
	// /statusz health block).
	HealthSnapshot = obs.HealthSnapshot
	// WorkflowHealth is one workflow's row in a HealthSnapshot.
	WorkflowHealth = obs.WorkflowHealth

	// PostmortemSpec hands AnalyzePostmortem one workflow's DAG and plan.
	PostmortemSpec = obs.PostmortemSpec
	// PostmortemReport is the miss root-cause analysis of a run.
	PostmortemReport = obs.PostmortemReport

	// IntrospectionServer serves /metrics, /statusz, and /debug/pprof for
	// an instrumented run; see ServeIntrospection.
	IntrospectionServer = obs.IntrospectionServer

	// AdmissionController is the submission front door: every workflow
	// release is ruled Admit, Defer, or Reject before the scheduler sees it.
	// Attach one with WithAdmission; build one with NewAdmission or
	// AlwaysAdmit. See DESIGN.md §14.
	AdmissionController = admission.Controller
	// AdmissionDecision is one front-door ruling.
	AdmissionDecision = admission.Decision
	// AdmissionConfig shapes NewAdmission: cluster capacity, mode, margin,
	// and per-tenant policies.
	AdmissionConfig = admission.Config
	// AdmissionTenant configures one tenant's rate limit, quota share, and
	// priority tier.
	AdmissionTenant = admission.Tenant
	// AdmissionRecord is one audit-trail entry from the pipeline controller.
	AdmissionRecord = admission.Record
)

// Event kinds carried by the scheduler event stream (ObsEvent.Kind).
const (
	KindWorkflowSubmitted = obs.KindWorkflowSubmitted
	KindWorkflowCompleted = obs.KindWorkflowCompleted
	KindDeadlineMissed    = obs.KindDeadlineMissed
	KindJobActivated      = obs.KindJobActivated
	KindTaskAssigned      = obs.KindTaskAssigned
	KindHeartbeatServed   = obs.KindHeartbeatServed
	KindQueueInsert       = obs.KindQueueInsert
	KindQueueDelete       = obs.KindQueueDelete
	KindQueueHeadHit      = obs.KindQueueHeadHit
	KindPlanGenerated     = obs.KindPlanGenerated

	KindTaskCompleted       = obs.KindTaskCompleted
	KindHealthSlack         = obs.KindHealthSlack
	KindHealthFellBehind    = obs.KindHealthFellBehind
	KindHealthRecovered     = obs.KindHealthRecovered
	KindHealthPredictedMiss = obs.KindHealthPredictedMiss

	KindAdmissionAdmitted = obs.KindAdmissionAdmitted
	KindAdmissionDeferred = obs.KindAdmissionDeferred
	KindAdmissionRejected = obs.KindAdmissionRejected
)

// Admission verdicts (AdmissionDecision.Verdict) and controller modes
// (AdmissionConfig.Mode).
const (
	AdmissionAdmit  = admission.Admit
	AdmissionDefer  = admission.Defer
	AdmissionReject = admission.Reject

	AdmissionModeAlways      = admission.ModeAlways
	AdmissionModeFeasible    = admission.ModeFeasible
	AdmissionModeTokenBucket = admission.ModeTokenBucket
)

// Slot types.
const (
	MapSlot    = cluster.MapSlot
	ReduceSlot = cluster.ReduceSlot
)

// NewWorkflow starts building a workflow named name.
func NewWorkflow(name string) *Builder { return workflow.NewBuilder(name) }

// ParseWorkflowXML reads a workflow from the XML configuration format of the
// paper (Section III-B), inferring prerequisites from dataset paths.
func ParseWorkflowXML(r io.Reader) (*Workflow, error) { return workflow.ParseXML(r) }

// MarshalWorkflowXML renders w in the configuration format accepted by
// ParseWorkflowXML.
func MarshalWorkflowXML(w *Workflow) ([]byte, error) { return workflow.MarshalXML(w) }

// At converts a duration since the simulation epoch into an instant.
func At(d time.Duration) Time { return simtime.Epoch.Add(d) }

// Priority policies.
var (
	// HLF is Highest Level First.
	HLF PriorityPolicy = priority.HLF{}
	// LPF is Longest Path First.
	LPF PriorityPolicy = priority.LPF{}
	// MPF is Maximum Parallelism First.
	MPF PriorityPolicy = priority.MPF{}
)

// PriorityByName resolves "HLF", "LPF", or "MPF".
func PriorityByName(name string) (PriorityPolicy, error) { return priority.ByName(name) }

// GeneratePlan produces a workflow's scheduling plan against a cluster with
// the given total slot count: job ranks under pol plus the progress
// requirements from the resource-capped Algorithm 1 simulation.
func GeneratePlan(w *Workflow, clusterSlots int, pol PriorityPolicy) (*Plan, error) {
	return plan.GenerateCapped(w, clusterSlots, pol)
}

// GeneratePlanTyped is GeneratePlan with separate map and reduce slot
// budgets and a safety margin in (0, 1]; it is what the paper-reproduction
// experiments use (margin 0.85).
func GeneratePlanTyped(w *Workflow, mapSlots, reduceSlots int, pol PriorityPolicy, margin float64) (*Plan, error) {
	return plan.GenerateCappedTyped(w, plan.Caps{Maps: mapSlots, Reduces: reduceSlots}, pol, margin)
}

// Scheduler identifies one of the built-in workflow schedulers.
type Scheduler string

// Built-in schedulers: the paper's WOHA progress-based scheduler with each
// intra-workflow priority policy, plus the three ported baselines.
const (
	SchedulerWOHALPF Scheduler = "WOHA-LPF"
	SchedulerWOHAHLF Scheduler = "WOHA-HLF"
	SchedulerWOHAMPF Scheduler = "WOHA-MPF"
	SchedulerFIFO    Scheduler = "FIFO"
	SchedulerFair    Scheduler = "Fair"
	SchedulerEDF     Scheduler = "EDF"
)

// Schedulers lists every built-in scheduler name.
func Schedulers() []Scheduler {
	return []Scheduler{
		SchedulerEDF, SchedulerFIFO, SchedulerFair,
		SchedulerWOHALPF, SchedulerWOHAHLF, SchedulerWOHAMPF,
	}
}

// priorityFor returns the WOHA intra-workflow policy, or nil for baselines.
func (s Scheduler) priorityFor() PriorityPolicy {
	switch s {
	case SchedulerWOHALPF:
		return LPF
	case SchedulerWOHAHLF:
		return HLF
	case SchedulerWOHAMPF:
		return MPF
	default:
		return nil
	}
}

// newPolicy instantiates the scheduler. ins may be nil.
func (s Scheduler) newPolicy(seed int64, ins *obs.Obs) (cluster.Policy, error) {
	switch s {
	case SchedulerFIFO:
		return scheduler.NewFIFO(), nil
	case SchedulerFair:
		return scheduler.NewFair(), nil
	case SchedulerEDF:
		return scheduler.NewEDF(), nil
	case SchedulerWOHALPF, SchedulerWOHAHLF, SchedulerWOHAMPF:
		return core.NewScheduler(core.Options{
			Seed:       seed,
			PolicyName: s.priorityFor().Name(),
			Obs:        ins,
		}), nil
	default:
		return nil, fmt.Errorf("woha: unknown scheduler %q", s)
	}
}

// SessionOption customizes a Session.
type SessionOption func(*sessionOptions)

type sessionOptions struct {
	seed        int64
	margin      float64
	marginSet   bool
	observer    Observer
	policy      Policy
	obs         *obs.Obs
	planWorkers int
	planCache   int
	planner     *Planner
	admission   AdmissionController
}

// WithSeed sets the seed for the scheduler's internal PRNG.
func WithSeed(seed int64) SessionOption {
	return func(o *sessionOptions) { o.seed = seed }
}

// WithPlanMargin sets the safety margin used when Submit generates plans
// (default 0.85; see plan.GenerateCappedMargin).
func WithPlanMargin(margin float64) SessionOption {
	return func(o *sessionOptions) { o.margin = margin; o.marginSet = true }
}

// WithPlannerWorkers sets how many Algorithm 1 probes Submit's plan
// generation may run concurrently (and the across-workflow concurrency of
// SubmitAll). n <= 0 selects one worker per core; the default is 1
// (sequential, the seed behaviour). Any worker count produces byte-identical
// plans — see internal/planner.
func WithPlannerWorkers(n int) SessionOption {
	return func(o *sessionOptions) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		o.planWorkers = n
	}
}

// WithPlanCache enables the structural plan cache with room for n plans
// (n <= 0 disables, the default). Workflows sharing a DAG shape, task
// statistics, policy, and relative deadline — recurring instances,
// template-stamped copies — are served one simulated plan; see
// internal/planner.
func WithPlanCache(n int) SessionOption {
	return func(o *sessionOptions) { o.planCache = n }
}

// Planner is the standalone plan-generation service: a structural plan cache
// plus singleflight request coalescing in front of the Algorithm 1
// generators (see internal/planner). One Planner is safe to share across
// sessions, RunSeeds sweeps, and the experiment corpora — concurrent
// requests for the same (DAG shape, caps, policy, relative deadline) key
// cost one simulation total, and every caller receives the same shared,
// read-only plan: it must not be written (Plan.Clone gives a private copy).
type Planner = planner.Planner

// NewPlanner builds a shareable plan service from the plan-shaping session
// options: WithPlannerWorkers, WithPlanCache, WithPlanMargin, and
// WithInstrumentation (which exposes the woha_planner_* metrics). Other
// options are ignored. Pass the result to sessions via WithPlanner.
func NewPlanner(opts ...SessionOption) *Planner {
	o := sessionOptions{margin: 0.85}
	for _, opt := range opts {
		opt(&o)
	}
	return planner.New(planner.Config{
		Workers:   o.planWorkers,
		CacheSize: o.planCache,
		Margin:    o.margin,
		Obs:       o.obs,
	})
}

// WithPlanner makes the session (or RunSeeds sweep) generate plans through a
// shared Planner instead of a private one, so its cache and coalescing span
// every client of that Planner. The session adopts the planner's margin;
// combining this with a conflicting WithPlanMargin is an error. Per-planner
// knobs (WithPlannerWorkers, WithPlanCache) are ignored when a shared
// planner is supplied.
func WithPlanner(pl *Planner) SessionOption {
	return func(o *sessionOptions) { o.planner = pl }
}

// WithObserver attaches a task lifecycle observer (e.g. NewTimeline()).
func WithObserver(obs Observer) SessionOption {
	return func(o *sessionOptions) { o.observer = obs }
}

// WithPolicy runs the session under a custom Policy implementation instead
// of a built-in scheduler, mirroring the paper's pluggable WorkflowScheduler.
func WithPolicy(p Policy) SessionOption {
	return func(o *sessionOptions) { o.policy = p }
}

// WithInstrumentation attaches the runtime observability layer: scheduler
// metrics flow into ins's registry and typed events into its sink. A nil ins
// is allowed and disables instrumentation.
func WithInstrumentation(ins *Instrumentation) SessionOption {
	return func(o *sessionOptions) { o.obs = ins }
}

// WithAdmission routes every workflow arrival through ctrl before the
// scheduler sees it: Admit proceeds as before, Defer re-queues the arrival at
// the controller's retry instant, Reject resolves the workflow unrun with a
// reason and (when one exists) a counter-offered feasible deadline on its
// WorkflowResult. nil (the default) admits everything on the untouched fast
// path. Controllers are stateful; do not share one across sessions.
func WithAdmission(ctrl AdmissionController) SessionOption {
	return func(o *sessionOptions) { o.admission = ctrl }
}

// NewAdmission builds the staged admission pipeline described in DESIGN.md
// §14: per-tenant token buckets, quota shares, and priority tiers stacked in
// front of a capacity-ledger feasibility check. See AdmissionConfig for the
// knobs; mode AdmissionModeAlways yields the zero-overhead front door.
func NewAdmission(cfg AdmissionConfig) (AdmissionController, error) {
	return admission.New(cfg)
}

// AlwaysAdmit returns the trivial controller that admits every workflow
// immediately — the explicit form of the default behaviour, useful for
// keeping the woha_admission_* instruments live under an open front door.
// ins may be nil.
func AlwaysAdmit(ins *Instrumentation) AdmissionController {
	return admission.Always(ins)
}

// NewTimeline returns a slot-allocation recorder to pass to WithObserver.
func NewTimeline() *Timeline { return metrics.NewTimeline() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewEventRing returns a bounded event sink keeping the newest n events
// (n <= 0 selects a default size).
func NewEventRing(n int) *EventRing { return obs.NewRing(n) }

// NewJSONLSink returns an event sink writing one JSON object per line to w.
// Check its Err method after the run for write failures.
func NewJSONLSink(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// NewInstrumentation bundles a registry and an event sink (either may be
// nil) into an Instrumentation for WithInstrumentation. It eagerly registers
// the standard woha_* instruments so exposition is complete even before any
// activity.
func NewInstrumentation(reg *Metrics, sink EventSink) *Instrumentation {
	return obs.New(reg, sink)
}

// WriteTrace renders events as Chrome trace-event JSON loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing, with per-tracker and per-workflow
// timeline tracks (per-workflow slack counter tracks included when the
// health tracker was enabled).
func WriteTrace(w io.Writer, events []ObsEvent) error { return obs.WriteTrace(w, events) }

// AnalyzePostmortem reconstructs each missed workflow's timeline from the
// event stream and attributes the miss: the first unmet progress
// requirement F_i, the critical-path job/stage that went late, and a
// wait-vs-run decomposition. See OBSERVABILITY.md for the JSON schema.
func AnalyzePostmortem(events []ObsEvent, specs []PostmortemSpec) *PostmortemReport {
	return obs.AnalyzePostmortem(events, specs)
}

// ServeIntrospection serves the runtime HTTP plane (/metrics, /statusz,
// /debug/pprof) for ins on addr (":0" picks a free port) until Shutdown.
func ServeIntrospection(addr string, ins *Instrumentation) (*IntrospectionServer, error) {
	return obs.ServeIntrospection(addr, ins)
}

// Session wires a simulated cluster to a scheduler and accepts workflow
// submissions. It mirrors the paper's submission pipeline: for WOHA
// schedulers, Submit plays the client role and generates the workflow's
// resource-capped scheduling plan before handing both to the JobTracker.
type Session struct {
	cfg     ClusterConfig
	sched   Scheduler
	prio    PriorityPolicy
	sim     *cluster.Simulator
	opts    sessionOptions
	planner *planner.Planner
}

// NewSession creates a session on a cluster configured by cfg under the
// named scheduler.
func NewSession(cfg ClusterConfig, sched Scheduler, opts ...SessionOption) (*Session, error) {
	o := sessionOptions{margin: 0.85}
	for _, opt := range opts {
		opt(&o)
	}
	pol := o.policy
	if pol == nil {
		var err error
		pol, err = sched.newPolicy(o.seed, o.obs)
		if err != nil {
			return nil, err
		}
	}
	pol = cluster.InstrumentPolicy(pol, o.obs)
	sim, err := cluster.New(cfg, pol, o.observer)
	if err != nil {
		return nil, fmt.Errorf("woha: %w", err)
	}
	sim.SetInstrumentation(o.obs)
	sim.SetAdmission(o.admission)
	s := &Session{cfg: cfg, sched: sched, prio: sched.priorityFor(), sim: sim, opts: o}
	if s.prio != nil && o.policy == nil {
		s.planner, err = o.resolvePlanner()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// resolvePlanner returns the plan service the options select: the shared one
// passed via WithPlanner (whose margin the session adopts, rejecting a
// conflicting explicit WithPlanMargin) or a private planner built from the
// plan-shaping knobs.
func (o *sessionOptions) resolvePlanner() (*Planner, error) {
	if o.planner != nil {
		if o.marginSet && o.planner.Margin() != o.margin {
			return nil, fmt.Errorf("woha: shared planner margin %v conflicts with WithPlanMargin %v", o.planner.Margin(), o.margin)
		}
		o.margin = o.planner.Margin()
		return o.planner, nil
	}
	return planner.New(planner.Config{
		Workers:   o.planWorkers,
		CacheSize: o.planCache,
		Margin:    o.margin,
		Obs:       o.obs,
	}), nil
}

// Submit queues a workflow. Under a WOHA scheduler the session generates the
// workflow's typed, resource-capped scheduling plan client-side; baselines
// receive no plan, as in the paper.
func (s *Session) Submit(w *Workflow) error {
	var p *Plan
	if s.planner != nil {
		var err error
		p, err = s.planner.Plan(w, plan.Caps{Maps: s.cfg.MapSlots(), Reduces: s.cfg.ReduceSlots()}, s.prio)
		if err != nil {
			return fmt.Errorf("woha: %w", err)
		}
		s.opts.obs.PlanGenerated(w.Release, w.Name, p.SearchIters)
	}
	return s.SubmitWithPlan(w, p)
}

// SubmitAll queues a batch of workflows in order. Under a WOHA scheduler the
// batch's plans are generated through the session planner — concurrently
// across workflows when WithPlannerWorkers allows — before any submission,
// so a failed plan leaves the session untouched.
func (s *Session) SubmitAll(flows []*Workflow) error {
	if s.planner == nil {
		for _, w := range flows {
			if err := s.Submit(w); err != nil {
				return err
			}
		}
		return nil
	}
	plans, err := s.planner.PlanAll(flows, plan.Caps{Maps: s.cfg.MapSlots(), Reduces: s.cfg.ReduceSlots()}, s.prio)
	if err != nil {
		return fmt.Errorf("woha: %w", err)
	}
	for i, w := range flows {
		s.opts.obs.PlanGenerated(w.Release, w.Name, plans[i].SearchIters)
		if err := s.SubmitWithPlan(w, plans[i]); err != nil {
			return err
		}
	}
	return nil
}

// SubmitWithPlan queues a workflow with a caller-provided plan (may be nil).
func (s *Session) SubmitWithPlan(w *Workflow, p *Plan) error {
	if s.sim == nil {
		return fmt.Errorf("woha: Submit after Run")
	}
	if err := s.sim.Submit(w, p); err != nil {
		return fmt.Errorf("woha: %w", err)
	}
	return nil
}

// Run executes the simulation to completion. It may be called once.
func (s *Session) Run() (*Result, error) {
	if s.sim == nil {
		return nil, fmt.Errorf("woha: Run called twice")
	}
	res, err := s.sim.Run()
	if err != nil {
		return nil, fmt.Errorf("woha: %w", err)
	}
	if s.opts.policy == nil && s.opts.observer == nil {
		// Built-in schedulers and instrumentation retain nothing from the
		// simulator past Run, so its arenas can go straight back to the
		// pool (Result is self-contained). With a user-supplied policy or
		// observer the session cannot know what simulator state the caller
		// still references, so the simulator is left for the collector.
		s.sim.Release()
		s.sim = nil
	}
	return res, nil
}

// RunSeeds replays the same workload under sched once per seed, fanning the
// independent replicas over a worker pool (workers <= 0 selects one per
// core, 1 runs serially). Each replica uses its seed for both the cluster's
// noise PRNG and the scheduler's queue PRNG. Results align with seeds and
// are identical at any worker count (see internal/runner).
//
// Plans do not depend on the seed, so under a WOHA scheduler they are
// generated once — honoring WithPlanMargin, WithPlannerWorkers, WithPlanCache,
// and WithPlanner (a shared plan service whose cache spans other sweeps and
// sessions) — and shared read-only across replicas. WithObserver and
// WithPolicy are per-run state and are rejected here; use WithInstrumentation
// to collect woha_runner_* metrics for the sweep.
func RunSeeds(cfg ClusterConfig, sched Scheduler, flows []*Workflow, seeds []int64, workers int, opts ...SessionOption) ([]*Result, error) {
	o := sessionOptions{margin: 0.85}
	for _, opt := range opts {
		opt(&o)
	}
	if o.observer != nil || o.policy != nil {
		return nil, fmt.Errorf("woha: RunSeeds does not accept WithObserver or WithPolicy; replicas need per-run state")
	}
	if o.admission != nil {
		return nil, fmt.Errorf("woha: RunSeeds does not accept WithAdmission; controllers are stateful per-run")
	}
	if _, err := sched.newPolicy(0, nil); err != nil {
		return nil, err
	}

	var plans []*Plan
	if prio := sched.priorityFor(); prio != nil {
		pl, err := o.resolvePlanner()
		if err != nil {
			return nil, err
		}
		plans, err = pl.PlanAll(flows, plan.Caps{Maps: cfg.MapSlots(), Reduces: cfg.ReduceSlots()}, prio)
		if err != nil {
			return nil, fmt.Errorf("woha: %w", err)
		}
	}

	cells := make([]runner.Cell, len(seeds))
	for i, seed := range seeds {
		cc := cfg
		cc.Seed = seed
		cells[i] = runner.Cell{
			Name:   fmt.Sprintf("%s/seed=%d", sched, seed),
			Config: cc,
			Policy: func() cluster.Policy {
				pol, _ := sched.newPolicy(seed, nil)
				return pol
			},
			Flows: flows,
		}
		if plans != nil {
			cells[i].Plans = func() ([]*Plan, error) { return plans, nil }
		}
	}
	results, err := runner.New(runner.Config{Workers: workers, Obs: o.obs}).RunAll(cells)
	if err != nil {
		return nil, fmt.Errorf("woha: %w", err)
	}
	return results, nil
}
