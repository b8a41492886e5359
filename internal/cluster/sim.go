package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Simulator executes submitted workflows on the simulated cluster under a
// scheduling policy. Construct with New, Submit workflows, then Run once.
//
// Mutable run state lives in flat struct-of-arrays storage addressed by
// small-int handles — the attempt arena and workflow arena of arena.go —
// instead of the map-based layout the pre-SoA core used (frozen in
// internal/cluster/refsim as the parity oracle). Release() reclaims it all
// wholesale. See DESIGN.md §12.
type Simulator struct {
	cfg Config
	pol Policy
	obs Observer
	rng *rand.Rand

	states []*WorkflowState
	// wsa backs the *WorkflowState records in states with block-stable
	// reused storage.
	wsa   wsArena
	nodes []nodeState
	// arena holds every in-flight task attempt; events reference attempts by
	// (handle, gen), and speculation candidates by handle.
	arena attemptArena
	// batch receives each instant's coalesced events from DrainInstant.
	batch []event
	now   simtime.Time

	arrivalsLeft int
	doneCount    int
	taskSeq      int
	// eventCount tallies every discrete event processed (Result.SimulatedEvents).
	eventCount int
	// drainBatches/drainCoalesced tally queue drains and the events beyond
	// the first in each batch, flushed to metrics at the end of Run.
	drainBatches   int
	drainCoalesced int
	// specGateSkips tallies speculate calls answered by the specNext gate.
	// Flushed with the drain tallies.
	specGateSkips int
	// quietTicks tallies the heartbeat ticks of sleeping nodes that were
	// counted into eventCount without being executed (rearmHeartbeat).
	quietTicks int
	// specWake is the earliest armed speculative wake-up (MaxTime = none),
	// preventing duplicate retry events.
	specWake simtime.Time
	// specNext is a lower bound on the crossing instant of every speculation
	// candidate (MaxTime when there is none): armSpeculativeWake sets it to
	// the earliest crossing, addCandidate lowers it. While now < specNext
	// nothing can be overdue, which is speculate's gate.
	specNext simtime.Time

	// adm is the admission front door consulted at each arrival (nil, the
	// default, admits everything on the untouched fast path).
	adm admission.Controller

	// freeIdx[st] indexes the nodes that are up with at least one free slot
	// of type st, so dispatch finds a slot without scanning every node.
	freeIdx [2]nodeSet
	// asleep is the set of quiescent nodes (heartbeat mode): their ticks are
	// counted, not executed, until wake materialises the next one. nAsleep is
	// its population.
	asleep  nodeSet
	nAsleep int
	// noWork[st] records that the policy refused a slot of type st and that
	// nothing able to give it a task of that type has happened since (see
	// Policy.NextTask); newWork clears it. Instant dispatch offers no st slot
	// while it is set.
	noWork [2]bool
	// phaseBase[wf] is the first of workflow wf's phase ids, two per job
	// (phase), and nextPhase the first id not yet handed out.
	phaseBase []int32
	nextPhase int32
	// due holds every armed tick at most one interval ahead, beside the event
	// queue (armHeartbeat). Each lies on its node's own phase and all lie
	// within one interval of the earliest, so the set in node order, taken
	// round from the earliest (dueNode, -1 when there is none), is the set in
	// firing order: the next is a word scan away, cheaper than filing every
	// tick in the queue. See dueFirst for how it keeps its place among the
	// queue's events.
	due     nodeSet
	dueNode int
	// load is the running form of LoadView, adjusted wherever a workflow,
	// task or slot changes state so that a view costs no walk.
	load Load
	// cands orders the speculation candidates by straggler-threshold
	// crossing, per job phase, so speculate takes its victim instead of
	// scanning attempts.
	cands candidates
	// arrivalTimes holds every submitted release time, sorted at Run;
	// arrIdx counts arrivals already delivered, so the next pending arrival
	// is an O(1) lookup for heartbeat skip-ahead.
	arrivalTimes []simtime.Time
	arrIdx       int

	mapBusy, reduceBusy time.Duration
	tasksStarted        int
	makespan            simtime.Time

	// ins is the optional runtime instrumentation and m its instruments,
	// zero when uninstrumented (obs handles no-op on nil). Arena, drain,
	// gate and quiescent tallies are flushed once per run (flushRunMetrics),
	// keeping per-event work free of atomics.
	ins *obs.Obs
	m   simInstruments

	ran bool

	// events is the event queue, last because it is large (a slice per
	// bucket) and the fields above are the ones read on every event.
	events simtime.Queue[event]
}

// simPool recycles simulator state — the node table, attempt and workflow
// arenas, the event queue, and both hot-path indexes — across runs. New
// draws from it and Release returns to it, so repeated-scenario workloads
// (the experiment runner, benches) stop paying per-run allocation for
// per-run state.
var simPool = sync.Pool{New: func() any { return new(Simulator) }}

type nodeState struct {
	freeMap    int32
	freeReduce int32
	down       bool
	// hbArmed reports whether a tick of this node is pending, in the event
	// queue or in Simulator.due (heartbeat mode only). An unarmed node is dormant (fully busy with
	// speculation off), parked, or asleep (Simulator.asleep) until a
	// completion, recovery, or arrival makes a tick useful again.
	hbArmed bool
	// parked marks a node whose re-arm was declined because every submitted
	// workflow had finished (the run-complete paths of rearmHeartbeat and
	// wakeNode). Had a later arrival been pre-submitted, the drained-skip
	// branch would have armed the node instead — busy-suppressed nodes, by
	// contrast, would have stayed dormant either way. SubmitLive re-arms
	// exactly the parked nodes, which is what makes mid-run injection
	// byte-identical to pre-run submission.
	parked bool
	// runHead is the node's running-attempt list: attempt records chained
	// through their prev/next links, newest first. Completions of attempts
	// lost to a failure are recognized as stale by their arena generation.
	runHead int32
	// lastTick is the instant of the node's most recent executed heartbeat
	// (before Epoch until the first). A sleeper's skipped ticks are the grid
	// points between it and the tick wake materialises.
	lastTick simtime.Time
	// dueAt is when the node's tick in Simulator.due fires.
	dueAt simtime.Time
}

func (n *nodeState) free(st SlotType) int32 {
	if st == MapSlot {
		return n.freeMap
	}
	return n.freeReduce
}

func (n *nodeState) take(st SlotType) {
	if st == MapSlot {
		n.freeMap--
	} else {
		n.freeReduce--
	}
}

func (n *nodeState) release(st SlotType) {
	if st == MapSlot {
		n.freeMap++
	} else {
		n.freeReduce++
	}
}

// event is the simulator's single event type, packed to keep the queue's
// per-entry footprint small. a and b are kind-specific operands:
//
//	evArrival    a = workflow index
//	evActivate   a = workflow index, b = job id
//	evComplete   a = attempt handle, gen = attempt generation
//	evHeartbeat, evFail, evRecover
//	             a = node index
//	evRetry      (no operands)
type event struct {
	kind eventKind
	a, b int32
	gen  uint32
}

type eventKind uint8

const (
	evArrival eventKind = iota
	evActivate
	evComplete
	evHeartbeat
	evFail
	evRecover
	// evRetry re-runs dispatch when a running task crosses its
	// speculation threshold.
	evRetry

	numEventKinds
)

// simInstruments is the obs.SimStats bundle with its labelled families bound
// to the values the simulator owns: one event counter per kind and one
// suppressed-heartbeat counter per reason.
type simInstruments struct {
	obs.SimStats
	events                   [numEventKinds]*obs.Counter
	busy, drained, quiescent *obs.Counter
}

// eventKindNames label the woha_sim_events_total counter series.
var eventKindNames = [numEventKinds]string{
	"arrival", "activate", "complete", "heartbeat", "fail", "recover", "retry",
}

// New returns a simulator for the given cluster configuration and policy.
// obs may be nil.
func New(cfg Config, pol Policy, obs Observer) (*Simulator, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: %d nodes, want > 0", cfg.Nodes)
	}
	if cfg.MapSlotsPerNode < 0 || cfg.ReduceSlotsPerNode < 0 || cfg.TotalSlots() == 0 {
		return nil, fmt.Errorf("cluster: bad slot config %d map + %d reduce per node",
			cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode)
	}
	// Every range check below is a comparison, which NaN fails both ways.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Noise", cfg.Noise},
		{"StragglerProb", cfg.StragglerProb},
		{"StragglerFactor", cfg.StragglerFactor},
		{"SpeculativeSlowdown", cfg.SpeculativeSlowdown},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("cluster: %s = %v, want a finite value", f.name, f.v)
		}
	}
	if cfg.Noise < 0 || cfg.Noise >= 1 {
		return nil, fmt.Errorf("cluster: noise %v, want [0, 1)", cfg.Noise)
	}
	if cfg.HeartbeatInterval < 0 {
		return nil, fmt.Errorf("cluster: negative heartbeat interval %v", cfg.HeartbeatInterval)
	}
	if cfg.HeartbeatInterval > 0 && int64(cfg.HeartbeatInterval) < int64(cfg.Nodes) {
		// due and settle need every node on a phase of its own (hbOffset),
		// which takes at least a nanosecond of interval per node.
		return nil, fmt.Errorf("cluster: heartbeat interval %v shorter than 1ns per node (%d nodes)",
			cfg.HeartbeatInterval, cfg.Nodes)
	}
	if cfg.SubmitterOverhead < 0 {
		return nil, fmt.Errorf("cluster: negative submitter overhead %v", cfg.SubmitterOverhead)
	}
	if cfg.SpeculativeSlowdown != 0 && cfg.SpeculativeSlowdown <= 1 {
		return nil, fmt.Errorf("cluster: speculative slowdown %v, want > 1 or 0", cfg.SpeculativeSlowdown)
	}
	if cfg.StragglerProb < 0 || cfg.StragglerProb >= 1 {
		return nil, fmt.Errorf("cluster: straggler probability %v, want [0, 1)", cfg.StragglerProb)
	}
	if cfg.StragglerProb > 0 && cfg.StragglerFactor <= 1 {
		return nil, fmt.Errorf("cluster: straggler factor %v, want > 1", cfg.StragglerFactor)
	}
	if pol == nil {
		return nil, fmt.Errorf("cluster: nil policy")
	}
	for _, f := range cfg.Failures {
		if f.Node < 0 || f.Node >= cfg.Nodes {
			return nil, fmt.Errorf("cluster: failure on node %d of %d", f.Node, cfg.Nodes)
		}
		if f.At < 0 || f.Downtime < 0 {
			return nil, fmt.Errorf("cluster: bad failure schedule %+v", f)
		}
	}
	s := simPool.Get().(*Simulator)
	s.reset(cfg, pol, obs)
	return s, nil
}

// reset reinitializes every field for a fresh run, reusing the backing
// storage a pooled simulator brings along.
func (s *Simulator) reset(cfg Config, pol Policy, obs Observer) {
	s.cfg, s.pol, s.obs = cfg, pol, obs
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		s.rng.Seed(cfg.Seed)
	}
	for i := range s.states {
		s.states[i] = nil
	}
	s.states = s.states[:0]
	s.wsa.reset()
	for len(s.nodes) < cfg.Nodes {
		s.nodes = append(s.nodes, nodeState{})
	}
	s.nodes = s.nodes[:cfg.Nodes]
	for i := range s.nodes {
		n := &s.nodes[i]
		n.freeMap, n.freeReduce = int32(cfg.MapSlotsPerNode), int32(cfg.ReduceSlotsPerNode)
		n.down, n.hbArmed, n.parked = false, false, false
		n.runHead = nilAttempt
		n.lastTick = simtime.Epoch - 1
	}
	s.asleep.reset(cfg.Nodes)
	s.nAsleep = 0
	s.noWork = [2]bool{}
	s.due.reset(cfg.Nodes)
	s.dueNode = -1
	s.phaseBase = s.phaseBase[:0]
	s.nextPhase = 0
	s.load = Load{
		MapSlots: cfg.MapSlots(), ReduceSlots: cfg.ReduceSlots(),
		FreeMaps: cfg.MapSlots(), FreeReduces: cfg.ReduceSlots(),
	}
	if cfg.MapSlotsPerNode > 0 {
		s.freeIdx[MapSlot].fill(cfg.Nodes)
	} else {
		s.freeIdx[MapSlot].reset(cfg.Nodes)
	}
	if cfg.ReduceSlotsPerNode > 0 {
		s.freeIdx[ReduceSlot].fill(cfg.Nodes)
	} else {
		s.freeIdx[ReduceSlot].reset(cfg.Nodes)
	}
	s.cands.reset()
	s.arena.reset()
	s.events.Reset()
	s.batch = s.batch[:0]
	s.now = simtime.Epoch
	s.arrivalsLeft, s.doneCount, s.taskSeq, s.eventCount = 0, 0, 0, 0
	s.clearRunTallies()
	s.specWake, s.specNext = simtime.MaxTime, simtime.MaxTime
	s.arrivalTimes = s.arrivalTimes[:0]
	s.arrIdx = 0
	s.mapBusy, s.reduceBusy = 0, 0
	s.tasksStarted = 0
	s.makespan = simtime.Epoch
	s.adm = nil
	s.SetInstrumentation(nil)
	s.ran = false
}

// Release returns the simulator's internal state to the package pool for
// reuse by a later New. Call it after Run when executing many scenarios
// (Result is self-contained and stays valid); the simulator — and any
// *WorkflowState a policy or observer captured from it — must not be used
// afterwards: workflow records are arena storage a later run overwrites.
// Release is optional — an unreleased simulator is simply collected.
func (s *Simulator) Release() {
	s.pol, s.obs, s.ins, s.adm = nil, nil, nil, nil
	for i := range s.states {
		s.states[i] = nil
	}
	s.states = s.states[:0]
	// Drop every reference and per-run tally the arenas and queue carry, so
	// a pooled simulator can neither pin prior-run specs/plans nor leak
	// prior-run attempt state into the next run's instrumentation flush
	// (see TestReleaseReuseInstrumentationHygiene).
	s.wsa.release()
	s.arena.reset()
	s.events.Reset()
	s.batch = s.batch[:0]
	s.clearRunTallies()
	s.m = simInstruments{}
	simPool.Put(s)
}

// clearRunTallies zeroes the plain-int tallies flushRunMetrics publishes.
func (s *Simulator) clearRunTallies() {
	s.drainBatches, s.drainCoalesced, s.specGateSkips = 0, 0, 0
	s.quietTicks = 0
}

// SetInstrumentation attaches the runtime observability bundle: simulated
// event counters, task-assignment and workflow lifecycle events, and
// heartbeat dispatch latency. Call before Run; a nil o (the default) keeps
// the hot paths at a single nil check.
func (s *Simulator) SetInstrumentation(o *obs.Obs) {
	s.ins, s.m = o, simInstruments{SimStats: o.NewSimStats()}
	if o == nil {
		return
	}
	for k, name := range eventKindNames {
		s.m.events[k] = s.m.Events.With(name)
	}
	sup := s.m.Suppressed
	s.m.busy, s.m.drained, s.m.quiescent = sup.With("busy"), sup.With("drained"), sup.With("quiescent")
	o.Health().SetSlots(s.cfg.MapSlots(), s.cfg.ReduceSlots())
	// Workflows submitted before instrumentation was attached still join
	// the health table.
	for _, ws := range s.states {
		o.Health().Register(ws.Index, ws.Spec.Name, ws.Spec.Release,
			ws.Spec.Deadline, ws.Spec.TotalTasks(), ws.Plan)
	}
}

// flushRunMetrics publishes the per-run arena, drain, gate and quiescent
// tallies once, at the end of Run.
func (s *Simulator) flushRunMetrics() {
	if s.ins == nil {
		return
	}
	s.m.ArenaCapacity.Set(int64(cap(s.arena.recs)))
	s.m.ArenaReuses.Add(int64(s.arena.reused))
	s.m.ArenaGrows.Add(int64(s.arena.grown))
	s.m.DrainBatches.Add(int64(s.drainBatches))
	s.m.DrainCoalesced.Add(int64(s.drainCoalesced))
	s.m.SpecGateSkips.Add(int64(s.specGateSkips))
	s.m.quiescent.Add(int64(s.quietTicks))
}

// SetAdmission installs the admission front door consulted when each
// workflow's release time arrives. Call before Run; nil (the default) admits
// every arrival at the cost of one nil check (WorkflowState.Rule).
func (s *Simulator) SetAdmission(ctrl admission.Controller) {
	s.adm = ctrl
}

// Submit queues a workflow for arrival at its release time. p is the WOHA
// scheduling plan and may be nil for policies that do not use one. Submit
// must be called before Run.
func (s *Simulator) Submit(w *workflow.Workflow, p *plan.Plan) error {
	if s.ran {
		return fmt.Errorf("cluster: Submit after Run")
	}
	if err := w.Validated(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	ws := s.enroll(w, p)
	s.events.Push(w.Release, event{kind: evArrival, a: int32(ws.Index)})
	s.arrivalTimes = append(s.arrivalTimes, w.Release)
	s.arrivalsLeft++
	return nil
}

// enroll builds the runtime state of a submitted workflow and counts it into
// the load view, which reports a workflow from submission, not from release.
func (s *Simulator) enroll(w *workflow.Workflow, p *plan.Plan) *WorkflowState {
	ws := s.wsa.alloc(len(s.states), w, p)
	s.ins.Health().Register(ws.Index, w.Name, w.Release, w.Deadline, w.TotalTasks(), p)
	s.states = append(s.states, ws)
	s.phaseBase = append(s.phaseBase, s.nextPhase)
	s.nextPhase += 2 * int32(len(w.Jobs))
	s.cands.grow(w, s.cfg.SpeculativeSlowdown)
	s.load.ActiveWorkflows++
	s.load.PendingTasks += ws.remaining
	s.load.Backlog += w.SerialWork()
	return ws
}

// Run executes the simulation to completion and returns the run's results.
// It fails if any workflow can never finish (for example, a job needs map
// slots on a cluster configured with none). Run is Start + StepTo(∞) +
// Finish; external drivers (the federation layer) call those primitives
// directly to interleave several simulators under one shared clock.
func (s *Simulator) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("cluster: Run called twice")
	}
	if len(s.states) == 0 {
		// Nothing submitted: an empty result without arming heartbeats or
		// failures, exactly as the pre-stepping core behaved.
		s.ran = true
		return s.result(), nil
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	s.StepTo(simtime.MaxTime)
	return s.Finish()
}

func (s *Simulator) arrive(wf int) {
	ws := s.states[wf]
	switch v, retry := ws.Rule(s.adm, s.now); v {
	case admission.Defer:
		// Re-arrive at the retry instant, ahead of every event already
		// pending there but behind the retries deferred to it before
		// (PushFront), as the live JobTracker rules what is due before it
		// serves a report. The consumed head of the arrival-time multiset
		// is replaced by the retry time and bubbled to its sorted position,
		// so heartbeat skip-ahead still sees the earliest pending arrival;
		// arrIdx and arrivalsLeft are untouched (the workflow is neither
		// live nor resolved).
		s.events.PushFront(retry, event{kind: evArrival, a: int32(wf)})
		i := s.arrIdx
		s.arrivalTimes[i] = retry
		for i+1 < len(s.arrivalTimes) && s.arrivalTimes[i+1] < s.arrivalTimes[i] {
			s.arrivalTimes[i], s.arrivalTimes[i+1] = s.arrivalTimes[i+1], s.arrivalTimes[i]
			i++
		}
		return
	case admission.Reject:
		// Resolved without ever reaching the policy: the run drains
		// normally and the result carries the refusal.
		s.arrivalsLeft--
		s.arrIdx++
		s.doneCount++
		s.load.ActiveWorkflows--
		s.load.PendingTasks -= ws.remaining
		s.load.Backlog -= ws.Spec.SerialWork()
		return
	}
	s.arrivalsLeft--
	s.arrIdx++
	s.ins.WorkflowSubmitted(s.now, wf, ws.Spec.Name)
	s.pol.WorkflowAdded(ws, s.now)
	// Activate every root before offering slots, so the policy sees the
	// whole ready set when the first slot is dispatched.
	for _, r := range ws.Spec.RootIDs() {
		s.scheduleActivation(wf, r)
	}
	s.dispatchAll()
}

// scheduleActivation makes job Ready now or after the submitter overhead.
// Immediate activations do not dispatch; the caller does, once all state
// changes of the current instant are applied.
func (s *Simulator) scheduleActivation(wf int, job workflow.JobID) {
	if s.cfg.SubmitterOverhead > 0 {
		s.push(s.now.Add(s.cfg.SubmitterOverhead), event{kind: evActivate, a: int32(wf), b: int32(job)})
		return
	}
	s.activateNow(wf, job)
}

// activate handles a deferred activation event.
func (s *Simulator) activate(wf int, job workflow.JobID) {
	s.activateNow(wf, job)
	s.dispatchAll()
}

func (s *Simulator) activateNow(wf int, job workflow.JobID) {
	ws := s.states[wf]
	ws.ActivateJob(job, s.now)
	s.ins.JobActivated(s.now, wf, int(job))
	s.pol.JobActivated(ws, job, s.now)
	for st := MapSlot; st <= ReduceSlot; st++ {
		if ws.Jobs[job].Schedulable(st) {
			s.newWork(st)
		}
	}
}

func (s *Simulator) complete(h int32, gen uint32) {
	rec := &s.arena.recs[h]
	if !rec.live || rec.gen != gen {
		// The attempt was lost to a node failure (or killed as a losing
		// speculative twin) after this completion was scheduled; a matching
		// generation proves the record was not recycled since.
		return
	}
	node, st := int(rec.node), SlotType(rec.st)
	wf, job, twin := int(rec.wf), workflow.JobID(rec.job), rec.twin
	s.unlinkRunning(h)
	s.freeAttempt(h)
	s.releaseSlot(node, st)
	if twin != nilAttempt {
		s.killAttempt(twin)
	}
	ws := s.states[wf]
	reducesReady, jobDone, done := ws.FinishTask(job, st, s.now)
	s.load.RunningTasks--
	if done {
		// Counted out before the observer reads the load view: ws.Done is set.
		s.doneCount++
		s.load.ActiveWorkflows--
	}
	s.ins.TaskCompleted(s.now, wf, int(job), int(st), node)
	if s.obs != nil {
		s.obs.TaskFinished(s.now, ws, job, st)
	}
	if reducesReady {
		if rp, ok := s.pol.(ReducePhasePolicy); ok {
			rp.ReducesReady(ws, job, s.now)
		}
		s.newWork(ReduceSlot)
	}
	if jobDone {
		ws.ReadyDependents(job, func(d workflow.JobID) { s.scheduleActivation(wf, d) })
	}
	if done {
		if s.ins != nil {
			s.ins.WorkflowCompleted(s.now, ws.Index, ws.Spec.Name, ws.Outcome().Tardiness)
		}
		s.pol.WorkflowCompleted(ws, s.now)
		if s.adm != nil {
			s.adm.Complete(ws.Spec, s.now)
		}
		if s.doneCount == s.arrIdx {
			// Drained or complete: every sleeper's next tick must run, to take
			// rearmHeartbeat's drained or parked branch as it always did.
			s.wakeAll()
		}
	}
	s.makespan = simtime.MaxOf(s.makespan, s.now)
	s.wakeNode(node)
	s.wakeIfSpeculating()
	s.dispatchAll()
}

func (s *Simulator) heartbeat(node int) {
	s.nodes[node].hbArmed = false
	s.nodes[node].lastTick = s.now
	var t0 time.Time
	started := 0
	if s.ins != nil {
		t0 = time.Now()
		started = s.tasksStarted
	}
	s.dispatchNode(node)
	if s.ins != nil {
		// The wall-clock cost of one heartbeat's worth of scheduling
		// decisions — the quantity WOHA's O(1)-per-heartbeat claim is about.
		s.ins.HeartbeatServed(s.now, node, time.Since(t0), s.tasksStarted-started)
	}
	for st := MapSlot; st <= ReduceSlot; st++ {
		if !s.noWork[st] {
			// Not refused: there may be more.
			s.probe(st)
		}
	}
	s.rearmHeartbeat(node)
}

// armHeartbeat schedules node's next heartbeat tick for at, on its own grid.
// A tick at most one interval ahead waits in due. Only a far one goes into
// the event queue: a drained skip to the next release (rearmHeartbeat,
// wakeNode), or a SubmitLive re-arm of a parked node for a release further
// off. A far tick stays there when it comes near; settle moves a due tick
// there when an event is pushed at its instant.
func (s *Simulator) armHeartbeat(node int, at simtime.Time) {
	n := &s.nodes[node]
	n.hbArmed, n.parked = true, false
	if at.Sub(s.now) > s.cfg.HeartbeatInterval {
		s.events.Push(at, event{kind: evHeartbeat, a: int32(node)})
		return
	}
	n.dueAt = at
	s.due.set(node)
	if s.dueNode < 0 || at < s.nodes[s.dueNode].dueAt {
		s.dueNode = node
	}
}

// rearmHeartbeat decides when node ticks next. The default is one interval
// from now; a tick that provably cannot schedule work is not executed:
//
//   - drained: every live workflow is done, so no completion or activation
//     can occur before the next arrival — skip straight to the first on-grid
//     tick that can see it (arrival events at the same instant pop first,
//     having been pushed at Submit). The skipped ticks are not counted.
//   - busy: the node has no free slot of either type and speculation is off,
//     so a tick cannot place work anywhere; stay dormant, uncounted, until a
//     completion or recovery wakes it (wakeNode).
//   - quiescent: every slot type full or refused and nothing to speculate
//     on — the node sleeps and its ticks are counted, not run ("Sleeping",
//     below).
func (s *Simulator) rearmHeartbeat(node int) {
	if s.doneCount == len(s.states) {
		// Run complete; let the event queue drain. Park the node so a
		// SubmitLive arrival can resume its grid where the drained branch
		// below would have.
		s.nodes[node].parked = true
		return
	}
	if s.doneCount == s.arrIdx {
		// Every arrived workflow is done, so only the next arrival
		// (arrivalsLeft > 0 here) can create schedulable work.
		s.m.drained.Inc()
		s.armHeartbeat(node, s.nextTick(node, s.nextArrival()))
		return
	}
	n := &s.nodes[node]
	if s.cfg.SpeculativeSlowdown == 0 && n.freeMap == 0 && n.freeReduce == 0 {
		s.m.busy.Inc()
		return
	}
	if s.specGateClosed() {
		s.asleep.set(node)
		s.nAsleep++
		return
	}
	s.armHeartbeat(node, s.now.Add(s.cfg.HeartbeatInterval))
}

// Sleeping. The tick that just ran left every slot type of the node full or
// refused by the policy, and the speculation gate closed. Its next ticks
// would ask the policy the question it just answered — Policy.NextTask says
// what may change that answer — skip speculation at the gate, and re-arm:
// nothing another handler could observe but the event count. So the node pushes no heartbeat; its
// ticks are counted when wake materialises the first one that has to run.
// Every handler that can change a sleeper's answer sees to that:
//
//	a slot freed on the node (complete, killAttempt,     stir: wake it, unless
//	recover)                                             noWork says no task
//	                                                     of a free type exists
//	new work of type st (activateNow, a map phase        newWork: clear noWork,
//	ending with reduces pending, a requeue in fail)      probe the sleepers
//	the speculation gate open after a completion,        wakeIfSpeculating: the
//	failure, recovery or retry                           next node on the grid
//	the run drains or completes                          wakeAll, so that each
//	                                                     next tick takes the
//	                                                     drained/parked branch
//	the node fails                                       wake it: no slot at
//	                                                     all is busy's case
//
// Waking too often is always safe — wake materialises exactly the tick the
// reference runs next on that node — and only costs the run of it.
//
// Order within an instant. The reference stamps the heartbeat for grid point
// g while the tick at g − interval runs, so a sleeper's unmaterialised tick
// sorts after every event pushed before that and ahead of every event pushed
// since. The second half is settle's job; the first is free, a materialised
// tick coming later still.

// specGateClosed is speculate's gate: no attempt is overdue and the armed
// retry covers the earliest crossing. Always true with speculation off.
func (s *Simulator) specGateClosed() bool {
	return s.now < s.specNext && s.specWake <= s.specNext
}

// wake materialises sleeper node's next tick — the first point of its own
// grid at or after now that it has not already run, so at most one interval
// ahead — and counts the ticks slept through, each of which the reference
// executed and found idle.
func (s *Simulator) wake(node int) {
	s.asleep.clear(node)
	s.nAsleep--
	n := &s.nodes[node]
	iv := s.cfg.HeartbeatInterval
	g := s.nextTick(node, s.now)
	if g == n.lastTick {
		g = g.Add(iv)
	}
	skipped := int(g.Sub(n.lastTick)/iv) - 1
	s.eventCount += skipped
	s.quietTicks += skipped
	s.armHeartbeat(node, g)
}

// dueFirst reports whether the earliest tick in due fires before the event
// queue's earliest event, at (ok false: the queue is empty). A tick in due
// has no stamp to order it among the queue's events at its instant, and
// needs none. At a tie the queue goes first: its events there were pushed
// before the tick was armed. Whatever is pushed there after the tick was
// armed must fire after it, so settle moves the tick into the queue first.
func (s *Simulator) dueFirst(at simtime.Time, ok bool) bool {
	return s.dueNode >= 0 && (!ok || s.nodes[s.dueNode].dueAt < at)
}

// takeDue removes node's tick from due. When it was the earliest, the next
// one round in node order is: every tick in due lies within one interval of
// the earliest.
func (s *Simulator) takeDue(node int) {
	s.due.clear(node)
	if node != s.dueNode {
		return
	}
	s.dueNode = s.due.next(node + 1)
	if s.dueNode < 0 {
		s.dueNode = s.due.next(0)
	}
}

// stir wakes node if it sleeps beside a free slot the policy might fill: a
// slot was freed on it, or the node came back up.
func (s *Simulator) stir(node int) {
	if !s.asleep.has(node) {
		return
	}
	n := &s.nodes[node]
	if (n.freeMap > 0 && !s.noWork[MapSlot]) || (n.freeReduce > 0 && !s.noWork[ReduceSlot]) {
		s.wake(node)
	}
}

// newWork records that the policy may have a task of type st again and has
// the sleepers with a free st slot asked.
func (s *Simulator) newWork(st SlotType) {
	s.noWork[st] = false
	s.probe(st)
}

// probe wakes, of the sleepers with a free st slot, the one whose tick comes
// first. The reference ticks them all, in grid order, and every one after the
// first refusal is refused too; so one is enough, provided the chain goes on
// while the answer is still open: a probe that fills up without being refused
// hands over to the next sleeper (heartbeat), and a refusal — the probe's or
// any other node's — sets noWork and ends it.
func (s *Simulator) probe(st SlotType) {
	if s.nAsleep == 0 {
		return
	}
	free, asleep := s.freeIdx[st].w, s.asleep.w
	var any uint64
	for wi := range free {
		any |= free[wi] & asleep[wi]
	}
	if any == 0 {
		return
	}
	// Round the grid from the node due next; the first word comes round
	// again for the bits below it.
	from := s.nextOnGrid()
	wi := from >> 6
	m := free[wi] & asleep[wi] &^ (1<<(uint(from)&63) - 1)
	for m == 0 {
		if wi++; wi == len(free) {
			wi = 0
		}
		m = free[wi] & asleep[wi]
	}
	s.wake(wi<<6 + bits.TrailingZeros64(m))
}

// wakeAll wakes every sleeper.
func (s *Simulator) wakeAll() {
	if s.nAsleep == 0 {
		return
	}
	for node := s.asleep.next(0); node >= 0; node = s.asleep.next(node + 1) {
		s.wake(node)
	}
}

// wakeIfSpeculating makes sure the next tick of the whole fleet runs when the
// speculation gate is open: that tick, whichever node's it is, is the one
// that launches a duplicate or arms the next retry.
func (s *Simulator) wakeIfSpeculating() {
	if s.nAsleep == 0 || s.specGateClosed() {
		return
	}
	if node := s.nextOnGrid(); s.asleep.has(node) {
		s.wake(node)
	}
}

// nextOnGrid returns the node whose grid point comes first at or after now,
// passing over the one whose tick of this very instant has already run.
func (s *Simulator) nextOnGrid() int {
	node := s.phaseNode(int64(s.now) % int64(s.cfg.HeartbeatInterval))
	if node < len(s.nodes) && s.nodes[node].lastTick == s.now {
		node++
	}
	if node == len(s.nodes) {
		node = 0
	}
	return node
}

// phaseNode returns the first node whose heartbeat phase (hbOffset) is at or
// after p, len(nodes) when none is: ⌊interval·k/n⌋ ≥ p ⇔ k ≥ ⌈p·n/interval⌉.
func (s *Simulator) phaseNode(p int64) int {
	iv := int64(s.cfg.HeartbeatInterval)
	return int((p*int64(len(s.nodes)) + iv - 1) / iv)
}

// push schedules e at instant at. While nodes sleep or have ticks in due it
// first restores the order the reference has between e and such a node's
// tick at that same instant (settle).
func (s *Simulator) push(at simtime.Time, e event) {
	if s.nAsleep > 0 || s.dueNode >= 0 {
		s.settle(at)
	}
	s.events.Push(at, e)
}

// settle puts the tick that the node whose grid holds at has there into the
// queue, when the reference may already have stamped it, which it does one
// interval ahead: the event about to be pushed must then follow that tick,
// and the only way to say so is to push the tick first. A sleeper is woken
// for it; a tick in due is moved. An instant further ahead than one interval
// is stamped later than now, and needs nothing.
func (s *Simulator) settle(at simtime.Time) {
	if at.Add(-s.cfg.HeartbeatInterval) > s.now {
		return
	}
	node := s.nodeAt(at)
	if node < 0 {
		return
	}
	if s.asleep.has(node) {
		s.wake(node)
	}
	if s.due.has(node) && s.nodes[node].dueAt == at {
		s.takeDue(node)
		s.events.Push(at, event{kind: evHeartbeat, a: int32(node)})
	}
}

// nodeAt returns the node whose grid holds at, or -1.
func (s *Simulator) nodeAt(at simtime.Time) int {
	p := int64(at) % int64(s.cfg.HeartbeatInterval)
	node := s.phaseNode(p)
	if node == len(s.nodes) || int64(s.hbOffset(node)) != p {
		return -1
	}
	return node
}

// wakeNode re-arms a node after a completion, recovery, or kill frees
// capacity on it. The tick lands on the node's own phase grid; a tick
// coinciding with the waking event is served immediately after it. No-op
// outside heartbeat mode or when the node is already armed.
func (s *Simulator) wakeNode(node int) {
	if s.cfg.HeartbeatInterval <= 0 || s.nodes[node].hbArmed {
		return
	}
	if s.asleep.has(node) {
		s.stir(node)
		return
	}
	if s.doneCount == len(s.states) {
		s.nodes[node].parked = true
		return
	}
	at := s.now
	if s.doneCount == s.arrIdx {
		// Only a future arrival can put work on this node.
		if na := s.nextArrival(); na > at {
			at = na
		}
	}
	s.armHeartbeat(node, s.nextTick(node, at))
}

// nextTick returns the first tick of node's staggered heartbeat grid at or
// after t. If t falls beyond the current instant's tick, ticks in between
// are skipped — they could not have scheduled anything.
func (s *Simulator) nextTick(node int, t simtime.Time) simtime.Time {
	first := simtime.Epoch.Add(s.hbOffset(node))
	if t <= first {
		return first
	}
	iv := int64(s.cfg.HeartbeatInterval)
	k := (int64(t.Sub(first)) + iv - 1) / iv
	return first.Add(time.Duration(k * iv))
}

// hbOffset is node's phase within the heartbeat interval (the Run stagger).
func (s *Simulator) hbOffset(node int) time.Duration {
	return time.Duration(int64(s.cfg.HeartbeatInterval) * int64(node) / int64(len(s.nodes)))
}

// nextArrival returns the release time of the next pending arrival. Only
// valid while arrivalsLeft > 0.
func (s *Simulator) nextArrival() simtime.Time {
	return s.arrivalTimes[s.arrIdx]
}

// linkRunning pushes attempt h onto node's running list (newest first).
func (s *Simulator) linkRunning(node int, h int32) {
	n := &s.nodes[node]
	rec := &s.arena.recs[h]
	rec.prev = nilAttempt
	rec.next = n.runHead
	if n.runHead != nilAttempt {
		s.arena.recs[n.runHead].prev = h
	}
	n.runHead = h
}

// unlinkRunning removes attempt h from its node's running list. Must
// precede freeAttempt, which repurposes the next link.
func (s *Simulator) unlinkRunning(h int32) {
	rec := &s.arena.recs[h]
	if rec.prev != nilAttempt {
		s.arena.recs[rec.prev].next = rec.next
	} else {
		s.nodes[rec.node].runHead = rec.next
	}
	if rec.next != nilAttempt {
		s.arena.recs[rec.next].prev = rec.prev
	}
}

// fail takes a node down: its running tasks are lost and re-queued as
// pending, and its slots vanish until recovery.
//
// The walk visits attempts newest-launched first (list insertion order) —
// deterministic, unlike the map iteration it replaces, which relied on the
// per-attempt handling being order-independent (it still is: the twin
// detach below mutates the surviving record in place, so a pair split
// across walk positions resolves identically either way).
func (s *Simulator) fail(nodeIdx int) {
	node := &s.nodes[nodeIdx]
	if node.down {
		return
	}
	node.down = true
	s.load.FreeMaps -= int(node.freeMap)
	s.load.FreeReduces -= int(node.freeReduce)
	node.freeMap, node.freeReduce = 0, 0
	s.freeIdx[MapSlot].clear(nodeIdx)
	s.freeIdx[ReduceSlot].clear(nodeIdx)
	if s.asleep.has(nodeIdx) {
		// Its next tick finds no slot at all, which with speculation off is
		// the busy branch's case, not a quiescent one.
		s.wake(nodeIdx)
	}
	h := node.runHead
	node.runHead = nilAttempt
	for h != nilAttempt {
		rec := &s.arena.recs[h]
		next := rec.next
		wf, job, st := int(rec.wf), workflow.JobID(rec.job), SlotType(rec.st)
		end, twin, spec := rec.end, rec.twin, rec.speculative
		s.freeAttempt(h)
		ws := s.states[wf]
		if st == MapSlot {
			s.mapBusy -= end.Sub(s.now) // the lost remainder never runs
		} else {
			s.reduceBusy -= end.Sub(s.now)
		}
		if s.obs != nil {
			// Balance the observer's start/finish pairing: the lost attempt
			// stopped occupying its slot at the failure instant.
			s.obs.TaskFinished(s.now, ws, job, st)
		}
		if twin != nilAttempt {
			// The other attempt survives and carries the task; detach it.
			// (If it sits later in this same walk, the cleared twin link
			// routes it into the requeue branch below, as it must.)
			s.detachTwin(twin)
			h = next
			continue
		}
		if spec {
			h = next
			continue // the original attempt still runs the task
		}
		s.load.Backlog += ws.RequeueTask(job, st)
		s.load.RunningTasks--
		s.load.PendingTasks++
		if rq, ok := s.pol.(RequeuePolicy); ok {
			rq.TaskRequeued(ws, job, st, s.now)
		}
		s.newWork(st)
		h = next
	}
	s.wakeIfSpeculating()
	// Remaining workflows may now be unschedulable if every node died;
	// Run's stuck detection reports that case.
	s.dispatchAll()
}

// recover brings a node back with empty slots.
func (s *Simulator) recover(nodeIdx int) {
	node := &s.nodes[nodeIdx]
	if !node.down {
		return
	}
	node.down = false
	node.freeMap = int32(s.cfg.MapSlotsPerNode)
	node.freeReduce = int32(s.cfg.ReduceSlotsPerNode)
	s.load.FreeMaps += s.cfg.MapSlotsPerNode
	s.load.FreeReduces += s.cfg.ReduceSlotsPerNode
	if node.freeMap > 0 {
		s.freeIdx[MapSlot].set(nodeIdx)
	}
	if node.freeReduce > 0 {
		s.freeIdx[ReduceSlot].set(nodeIdx)
	}
	s.wakeNode(nodeIdx)
	s.wakeIfSpeculating()
	s.dispatchAll()
}

// dispatchAll assigns tasks to every idle slot in the cluster (instant
// dispatch mode). Under heartbeat mode slots are only offered on heartbeats.
// A slot type the policy has refused since the last event able to give it
// work (noWork) is not offered: Policy.NextTask says the answer would be the
// same refusal.
func (s *Simulator) dispatchAll() {
	if s.cfg.HeartbeatInterval > 0 {
		return
	}
	for st := MapSlot; st <= ReduceSlot; st++ {
		if s.noWork[st] {
			continue
		}
		node := 0
		for {
			// Find a node with a free slot of this type. The index walks
			// the same lowest-index-first order the old O(nodes) scan did.
			node = s.freeIdx[st].next(node)
			if node < 0 {
				break
			}
			if !s.offer(node, st) {
				break
			}
		}
	}
	s.speculate()
}

// takeSlot claims a free st slot on node, maintaining the free-slot index.
func (s *Simulator) takeSlot(node int, st SlotType) {
	n := &s.nodes[node]
	n.take(st)
	s.load.addFree(st, -1)
	if n.free(st) == 0 {
		s.freeIdx[st].clear(node)
	}
}

// releaseSlot frees an st slot on node. Never called on a down node: a
// failure empties its running list, so no completion or kill reaches it.
func (s *Simulator) releaseSlot(node int, st SlotType) {
	s.nodes[node].release(st)
	s.load.addFree(st, 1)
	s.freeIdx[st].set(node)
}

// dispatchNode assigns tasks to one node's idle slots (heartbeat mode).
func (s *Simulator) dispatchNode(node int) {
	for st := MapSlot; st <= ReduceSlot; st++ {
		for s.nodes[node].free(st) > 0 {
			if !s.offer(node, st) {
				break
			}
		}
	}
	s.speculate()
}

// offer asks the policy for a task for one free slot of type st on node,
// reporting whether one was assigned.
func (s *Simulator) offer(node int, st SlotType) bool {
	s.m.Offers.Inc()
	ws, job, ok := s.pol.NextTask(s.now, st)
	if !ok {
		s.noWork[st] = true
		return false
	}
	if !ws.Jobs[job].Schedulable(st) {
		// A policy bug; fail loudly rather than corrupting counts.
		panic(fmt.Sprintf("cluster: policy %s returned non-schedulable job %d of workflow %q for %v slot",
			s.pol.Name(), job, ws.Spec.Name, st))
	}
	base := ws.StartTask(job, st)
	dur := s.noisy(base)
	s.takeSlot(node, st)
	s.load.RunningTasks++
	s.load.PendingTasks--
	s.load.Backlog -= base
	s.tasksStarted++
	if st == MapSlot {
		s.mapBusy += dur
	} else {
		s.reduceBusy += dur
	}
	s.pol.TaskStarted(ws, job, st, s.now)
	s.ins.TaskAssigned(s.now, ws.Index, int(job), int(st), node, dur)
	if s.obs != nil {
		s.obs.TaskStarted(s.now, ws, job, st, dur)
	}
	s.taskSeq++
	end := s.now.Add(dur)
	h, rec := s.arena.alloc()
	rec.end, rec.dur = end, dur
	rec.wf, rec.job, rec.node = int32(ws.Index), int32(job), int32(node)
	rec.twin = nilAttempt
	rec.seq = int32(s.taskSeq)
	rec.st = uint8(st)
	rec.speculative = false
	rec.live = true
	s.linkRunning(node, h)
	if s.cfg.SpeculativeSlowdown != 0 {
		s.addCandidate(h)
	}
	s.push(end, event{kind: evComplete, a: h, gen: rec.gen})
	return true
}

// phase returns the id of a job phase, which indexes its speculation
// candidate list.
func (s *Simulator) phase(wf int, job workflow.JobID, st SlotType) int32 {
	return s.phaseBase[wf] + 2*int32(job) + int32(st)
}

// killAttempt removes a losing speculative attempt, freeing its slot and
// crediting back the slot-time it will no longer consume. The handle comes
// from a live record's twin field, which never dangles (see attemptRec), but
// the live guard keeps the operation safe to repeat.
func (s *Simulator) killAttempt(h int32) {
	rec := &s.arena.recs[h]
	if !rec.live {
		return
	}
	node, st := int(rec.node), SlotType(rec.st)
	wf, job, end := int(rec.wf), workflow.JobID(rec.job), rec.end
	s.unlinkRunning(h)
	s.freeAttempt(h)
	s.releaseSlot(node, st)
	s.stir(node)
	if st == MapSlot {
		s.mapBusy -= end.Sub(s.now)
	} else {
		s.reduceBusy -= end.Sub(s.now)
	}
	if s.obs != nil {
		s.obs.TaskFinished(s.now, s.states[wf], job, st)
	}
}

// detachTwin clears the twin linkage on a surviving attempt, making it a
// speculation candidate again.
func (s *Simulator) detachTwin(h int32) {
	rec := &s.arena.recs[h]
	if !rec.live {
		return
	}
	rec.twin = nilAttempt
	rec.speculative = false // it now carries the task outright
	if s.cfg.SpeculativeSlowdown != 0 {
		s.addCandidate(h)
	}
}

// addCandidate makes live attempt h a speculation candidate.
func (s *Simulator) addCandidate(h int32) {
	rec := &s.arena.recs[h]
	cross := s.cands.add(s.arena.recs, h, s.phase(int(rec.wf), workflow.JobID(rec.job), SlotType(rec.st)))
	if cross < s.specNext {
		s.specNext = cross
	}
}

// freeAttempt retires h's record, withdrawing it from speculation first: an
// attempt that completes, is killed, or is lost to a failure stops being a
// candidate there and then.
func (s *Simulator) freeAttempt(h int32) {
	if rec := &s.arena.recs[h]; rec.cand {
		s.cands.remove(s.arena.recs, h, s.phase(int(rec.wf), workflow.JobID(rec.job), SlotType(rec.st)))
	}
	s.arena.free(h)
}

// setTwin links two attempts of the same task.
func (s *Simulator) setTwin(h, twin int32) {
	rec := &s.arena.recs[h]
	if !rec.live {
		return
	}
	rec.twin = twin
}

// speculate launches duplicate attempts for overdue running tasks onto idle
// slots (speculative execution). It runs after normal dispatch found no
// assignable pending work for the remaining free slots.
//
// Most calls have nothing to do, and the gate says so in O(1): while
// now < specNext no candidate is overdue, so nothing launches, and every
// future crossing is at or after specNext, so with specWake <= specNext the
// armed wake-up already covers the earliest one and armSpeculativeWake would
// push nothing.
func (s *Simulator) speculate() {
	if s.cfg.SpeculativeSlowdown == 0 {
		return
	}
	if s.specGateClosed() {
		s.specGateSkips++
		return
	}
	for st := MapSlot; st <= ReduceSlot; st++ {
		for {
			node := s.freeIdx[st].next(0)
			if node < 0 {
				break
			}
			h, ok := s.popOverdue(st)
			if !ok {
				break
			}
			s.launchSpeculative(node, h)
		}
	}
	s.armSpeculativeWake()
}

// popOverdue takes the attempt of type st that has been past its straggler
// threshold the longest — the minimum (crossing instant, launch sequence),
// which is exactly the old scan's max-overage victim with lowest-sequence
// tie-break — out of its candidate list.
func (s *Simulator) popOverdue(st SlotType) (int32, bool) {
	hs := s.cands.heads[st]
	if len(hs) == 0 || hs[0].at > s.now {
		return nilAttempt, false // no candidate is overdue yet
	}
	p := hs[0].p
	h := s.cands.phases[p].head
	s.cands.remove(s.arena.recs, h, p)
	return h, true
}

// armSpeculativeWake schedules a retry at the moment the next running
// attempt crosses its straggler threshold; without it a straggling final
// task would never be re-examined (no intervening events). The earliest
// candidate is normally that attempt; only when already-overdue candidates
// (blocked on a full cluster) come first does it walk each phase's overdue
// prefix to the phase's first future crossing.
func (s *Simulator) armSpeculativeWake() {
	next, lo := simtime.MaxTime, simtime.MaxTime
	recs := s.arena.recs
	for st := MapSlot; st <= ReduceSlot; st++ {
		hs := s.cands.heads[st]
		if len(hs) == 0 {
			continue
		}
		lo = simtime.MinTime(lo, hs[0].at)
		if hs[0].at > s.now {
			next = simtime.MinTime(next, hs[0].at)
			continue
		}
		for _, hd := range hs {
			pc := &s.cands.phases[hd.p]
			for h := pc.head; h != nilAttempt; h = recs[h].cnext {
				if x := pc.crossing(&recs[h]); x > s.now || x >= next {
					next = simtime.MinTime(next, x)
					break
				}
			}
		}
	}
	s.specNext = lo
	if next < s.specWake {
		s.specWake = next
		s.m.SpecWakeups.Inc()
		s.push(next, event{kind: evRetry})
	}
}

// launchSpeculative starts a duplicate attempt of the task behind orig.
func (s *Simulator) launchSpeculative(node int, orig int32) {
	origRec := &s.arena.recs[orig]
	wf, job, st := origRec.wf, origRec.job, SlotType(origRec.st)
	ws := s.states[wf]
	spec := &ws.Spec.Jobs[job]
	base := spec.MapTime
	if st == ReduceSlot {
		base = spec.ReduceTime
	}
	dur := s.noisy(base)
	s.takeSlot(node, st)
	if st == MapSlot {
		s.mapBusy += dur
	} else {
		s.reduceBusy += dur
	}
	s.tasksStarted++
	s.taskSeq++
	end := s.now.Add(dur)
	// alloc may grow the arena; origRec is dead past this point.
	h, rec := s.arena.alloc()
	rec.end, rec.dur = end, dur
	rec.wf, rec.job, rec.node = wf, job, int32(node)
	rec.twin = orig
	rec.seq = int32(s.taskSeq)
	rec.st = uint8(st)
	rec.speculative = true
	rec.live = true
	s.linkRunning(node, h)
	s.setTwin(orig, h)
	if s.obs != nil {
		s.obs.TaskStarted(s.now, ws, workflow.JobID(job), st, dur)
	}
	s.push(end, event{kind: evComplete, a: h, gen: rec.gen})
}

// noisy perturbs d by the configured estimation error and, independently,
// by the one-sided straggler model.
func (s *Simulator) noisy(d time.Duration) time.Duration {
	nd := d
	if s.cfg.Noise != 0 {
		f := 1 + s.cfg.Noise*(2*s.rng.Float64()-1)
		nd = time.Duration(float64(nd) * f)
	}
	if s.cfg.StragglerProb > 0 && s.rng.Float64() < s.cfg.StragglerProb {
		nd = time.Duration(float64(nd) * s.cfg.StragglerFactor)
	}
	if nd <= 0 {
		nd = time.Nanosecond
	}
	return nd
}
