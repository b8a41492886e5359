package woha

import (
	"fmt"
	"io"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/runner"
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
	specs := experiments.AllSchedulers()
	out := make([]Scheduler, len(specs))
	for i, spec := range specs {
		out[i] = Scheduler(spec.Name)
	}
	return out
}

// spec looks the scheduler up in the one scheduler table
// (experiments.SchedulerSpec), which knows its policy, its plan priority and
// its queue backend.
func (s Scheduler) spec() (experiments.SchedulerSpec, error) {
	spec, err := experiments.SchedulerByName(string(s))
	if err != nil {
		return spec, fmt.Errorf("woha: unknown scheduler %q", s)
	}
	return spec, nil
}

// SessionOption customizes a Session.
type SessionOption func(*sessionOptions)

type sessionOptions struct {
	seed      int64
	observer  Observer
	policy    Policy
	obs       *obs.Obs
	planner   *Planner
	admission AdmissionController
}

// WithSeed sets the seed for the scheduler's internal PRNG.
func WithSeed(seed int64) SessionOption {
	return func(o *sessionOptions) { o.seed = seed }
}

// Planner is the standalone plan-generation service: a structural plan cache
// plus singleflight request coalescing in front of the Algorithm 1
// generators (see internal/planner). One Planner is safe to share across
// sessions, RunSeeds sweeps, and the experiment corpora — concurrent
// requests for the same (DAG shape, caps, policy, relative deadline) key
// cost one simulation total, and every caller receives the same shared,
// read-only plan: it must not be written (Plan.Clone gives a private copy).
type Planner = planner.Planner

// PlannerConfig shapes NewPlanner: how many workflows a batch (SubmitAll,
// RunSeeds) plans at once (<= 1 means one at a time; pass
// runtime.GOMAXPROCS(0) for one per core), the structural plan cache's
// capacity (<= 0 disables it), the safety margin (zero selects 0.85), and
// the Instrumentation that receives the woha_planner_* metrics. Any worker
// count and cache size produce byte-identical plans.
type PlannerConfig = planner.Config

// NewPlanner builds a shareable plan service; pass it to sessions and
// RunSeeds sweeps via WithPlanner. The planner is the one place plan
// settings live.
func NewPlanner(cfg PlannerConfig) *Planner { return planner.New(cfg) }

// WithPlanner makes the session (or RunSeeds sweep) generate plans through
// pl, so its cache and coalescing span every client of that Planner, at its
// margin. Without it a WOHA session plans through a private planner with the
// zero PlannerConfig and the session's instrumentation: one workflow at a
// time, uncached, at margin 0.85 (NewSessionFromConfig's at its
// plan-margin).
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

// applyOptions folds opts over the session defaults.
func applyOptions(opts []SessionOption) sessionOptions {
	var o sessionOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// resolve is the one way a session's scheduler becomes what it runs:
// lookup finds the scheduler's entry in the one scheduler table
// (experiments.SchedulerSpec), newPolicy builds its policy for a seed, and
// under WOHA pl is the planner its plans come from — WithPlanner's, or a
// private one with the zero PlannerConfig and the session's instrumentation.
// A WithPolicy policy runs in the scheduler's place and brings its own
// submission pipeline, so then the table is not consulted, spec is zero and
// nothing is planned.
func (o *sessionOptions) resolve(lookup func() (experiments.SchedulerSpec, error)) (spec experiments.SchedulerSpec, newPolicy func(seed int64) Policy, pl *Planner, err error) {
	if o.policy != nil {
		return spec, func(int64) Policy { return o.policy }, nil, nil
	}
	if spec, err = lookup(); err != nil {
		return spec, nil, nil, err
	}
	if spec.IsWOHA() {
		if pl = o.planner; pl == nil {
			pl = planner.New(planner.Config{Obs: o.obs})
		}
	}
	return spec, func(seed int64) Policy { return spec.New(seed, o.obs) }, pl, nil
}

// Session wires a simulated cluster to a scheduler and accepts workflow
// submissions. It mirrors the paper's submission pipeline: for WOHA
// schedulers, Submit plays the client role and generates the workflow's
// resource-capped scheduling plan before handing both to the JobTracker.
// Built-in schedulers and their plans come from the one scheduler table,
// experiments.SchedulerSpec.
type Session struct {
	cfg     ClusterConfig
	spec    experiments.SchedulerSpec
	sim     *cluster.Simulator
	opts    sessionOptions
	planner *planner.Planner
}

// NewSession creates a session on a cluster configured by cfg under the
// named scheduler.
func NewSession(cfg ClusterConfig, sched Scheduler, opts ...SessionOption) (*Session, error) {
	return newSession(cfg, sched.spec, applyOptions(opts))
}

// newSession builds a session running the scheduler lookup finds (see
// resolve).
func newSession(cfg ClusterConfig, lookup func() (experiments.SchedulerSpec, error), o sessionOptions) (*Session, error) {
	spec, newPolicy, pl, err := o.resolve(lookup)
	if err != nil {
		return nil, err
	}
	sim, err := cluster.New(cfg, cluster.InstrumentPolicy(newPolicy(o.seed), o.obs), o.observer)
	if err != nil {
		return nil, fmt.Errorf("woha: %w", err)
	}
	sim.SetInstrumentation(o.obs)
	sim.SetAdmission(o.admission)
	return &Session{cfg: cfg, spec: spec, sim: sim, opts: o, planner: pl}, nil
}

// Submit queues a workflow. Under a WOHA scheduler the session generates the
// workflow's typed, resource-capped scheduling plan client-side; baselines
// receive no plan, as in the paper.
func (s *Session) Submit(w *Workflow) error { return s.SubmitAll([]*Workflow{w}) }

// SubmitAll queues a batch of workflows in order. Under a WOHA scheduler the
// batch's plans are generated through the session planner — concurrently
// across workflows when its PlannerConfig.Workers allows — before any
// submission, so a failed plan leaves the session untouched.
func (s *Session) SubmitAll(flows []*Workflow) error {
	plans, err := s.spec.Plans(s.planner, flows, plan.Caps{Maps: s.cfg.MapSlots(), Reduces: s.cfg.ReduceSlots()}, s.opts.obs)
	if err != nil {
		return fmt.Errorf("woha: %w", err)
	}
	for i, w := range flows {
		var p *Plan
		if plans != nil {
			p = plans[i]
		}
		if err := s.SubmitWithPlan(w, p); err != nil {
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
// generated once — through WithPlanner's planner (a shared plan service
// whose cache spans other sweeps and sessions), or a private uncached one —
// and shared read-only across replicas. WithObserver and WithPolicy are
// per-run state and are rejected here; use WithInstrumentation to collect
// woha_runner_* metrics for the sweep.
func RunSeeds(cfg ClusterConfig, sched Scheduler, flows []*Workflow, seeds []int64, workers int, opts ...SessionOption) ([]*Result, error) {
	o := applyOptions(opts)
	if o.observer != nil || o.policy != nil {
		return nil, fmt.Errorf("woha: RunSeeds does not accept WithObserver or WithPolicy; replicas need per-run state")
	}
	if o.admission != nil {
		return nil, fmt.Errorf("woha: RunSeeds does not accept WithAdmission; controllers are stateful per-run")
	}
	spec, newPolicy, pl, err := o.resolve(sched.spec)
	if err != nil {
		return nil, err
	}
	plans, err := spec.Plans(pl, flows, plan.Caps{Maps: cfg.MapSlots(), Reduces: cfg.ReduceSlots()}, o.obs)
	if err != nil {
		return nil, fmt.Errorf("woha: %w", err)
	}

	cells := make([]runner.Cell, len(seeds))
	for i, seed := range seeds {
		cc := cfg
		cc.Seed = seed
		cells[i] = runner.Cell{
			Name:   fmt.Sprintf("%s/seed=%d", sched, seed),
			Config: cc,
			Policy: func() cluster.Policy { return newPolicy(seed) },
			Flows:  flows,
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
