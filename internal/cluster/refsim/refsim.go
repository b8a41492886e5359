// Package refsim is the frozen pre-SoA cluster simulator, kept verbatim as
// the golden parity oracle for the arena/struct-of-arrays core in
// internal/cluster. It is the map-based, pop-per-event implementation that
// produced every committed figure before the memory-layout refactor:
// attempts live in map[int] tables keyed by launch sequence, each node keeps
// a running map, and the event heap is popped once per event.
//
// Do not optimize or otherwise "improve" this package — its only job is to
// stay byte-identical in behavior to the historical simulator so the parity
// test in internal/experiments can prove the rewritten core reproduces
// Fig 8 / Fig 11 and every met/miss vector exactly. It is deliberately
// unpooled and uninstrumented (instrumentation never influenced results).
//
// Two fields of the shared state types are unexported to package cluster
// (JobState.unmet, JobState.delayedSince); refsim tracks both in parallel
// per-workflow arrays, which is observationally identical because nothing
// outside the simulator ever read them.
package refsim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Run executes flows (with matching plans; plans[i] may be nil) on the
// reference simulator and returns the run result. It mirrors the historical
// New + Submit loop + Run sequence exactly.
func Run(cfg cluster.Config, pol cluster.Policy, obs cluster.Observer,
	flows []*workflow.Workflow, plans []*plan.Plan) (*cluster.Result, error) {
	if len(plans) != 0 && len(plans) != len(flows) {
		return nil, fmt.Errorf("refsim: %d plans for %d workflows", len(plans), len(flows))
	}
	s := &simulator{
		cfg:      cfg,
		pol:      pol,
		obs:      obs,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		nodes:    make([]nodeState, cfg.Nodes),
		specWake: simtime.MaxTime,
		attempts: make(map[int]attemptRef),
		makespan: simtime.Epoch,
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		n.freeMap, n.freeReduce = cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode
		n.running = make(map[int]runningTask)
	}
	if cfg.MapSlotsPerNode > 0 {
		s.freeIdx[cluster.MapSlot].fill(cfg.Nodes)
	} else {
		s.freeIdx[cluster.MapSlot].reset(cfg.Nodes)
	}
	if cfg.ReduceSlotsPerNode > 0 {
		s.freeIdx[cluster.ReduceSlot].fill(cfg.Nodes)
	} else {
		s.freeIdx[cluster.ReduceSlot].reset(cfg.Nodes)
	}
	for i, w := range flows {
		var p *plan.Plan
		if len(plans) > 0 {
			p = plans[i]
		}
		if err := s.submit(w, p); err != nil {
			return nil, err
		}
	}
	return s.run()
}

type simulator struct {
	cfg cluster.Config
	pol cluster.Policy
	obs cluster.Observer
	rng *rand.Rand

	states []*cluster.WorkflowState
	// unmet and delayed shadow the unexported JobState fields of the same
	// names, indexed [workflow][job].
	unmet   [][]int
	delayed [][]simtime.Time
	nodes   []nodeState
	events  simtime.Queue[event]
	now     simtime.Time

	arrivalsLeft int
	doneCount    int
	taskSeq      int
	eventCount   int
	specWake     simtime.Time
	attempts     map[int]attemptRef

	freeIdx [2]nodeSet
	overdue [2]specHeap

	arrivalTimes []simtime.Time
	arrIdx       int

	mapBusy, reduceBusy time.Duration
	tasksStarted        int
	makespan            simtime.Time
	localMaps           int
	remoteMaps          int
}

type nodeState struct {
	freeMap    int
	freeReduce int
	down       bool
	hbArmed    bool
	running    map[int]runningTask
}

type runningTask struct {
	wf          int
	job         workflow.JobID
	st          cluster.SlotType
	end         simtime.Time
	dur         time.Duration
	twin        int
	speculative bool
}

type attemptRef struct {
	node int
	rt   runningTask
}

func (n *nodeState) free(st cluster.SlotType) int {
	if st == cluster.MapSlot {
		return n.freeMap
	}
	return n.freeReduce
}

func (n *nodeState) take(st cluster.SlotType) {
	if st == cluster.MapSlot {
		n.freeMap--
	} else {
		n.freeReduce--
	}
}

func (n *nodeState) release(st cluster.SlotType) {
	if st == cluster.MapSlot {
		n.freeMap++
	} else {
		n.freeReduce++
	}
}

type event struct {
	kind eventKind

	wf   int
	job  workflow.JobID
	st   cluster.SlotType
	node int
	seq  int
}

type eventKind int

const (
	evArrival eventKind = iota
	evActivate
	evComplete
	evHeartbeat
	evFail
	evRecover
	evRetry
)

func (s *simulator) submit(w *workflow.Workflow, p *plan.Plan) error {
	if err := w.Validate(); err != nil {
		return fmt.Errorf("refsim: %w", err)
	}
	ws := cluster.NewWorkflowState(len(s.states), w, p)
	s.states = append(s.states, ws)
	unmet := make([]int, len(w.Jobs))
	for i := range w.Jobs {
		unmet[i] = len(w.Jobs[i].Prereqs)
	}
	s.unmet = append(s.unmet, unmet)
	s.delayed = append(s.delayed, make([]simtime.Time, len(w.Jobs)))
	s.events.Push(w.Release, event{kind: evArrival, wf: ws.Index})
	s.arrivalTimes = append(s.arrivalTimes, w.Release)
	s.arrivalsLeft++
	return nil
}

func (s *simulator) run() (*cluster.Result, error) {
	if len(s.states) == 0 {
		return s.result(), nil
	}
	slices.Sort(s.arrivalTimes)
	if s.cfg.HeartbeatInterval > 0 {
		for i := range s.nodes {
			s.armHeartbeat(i, simtime.Epoch.Add(s.hbOffset(i)))
		}
	}
	for _, f := range s.cfg.Failures {
		s.events.Push(f.At, event{kind: evFail, node: f.Node})
		if f.Downtime > 0 {
			s.events.Push(f.At.Add(f.Downtime), event{kind: evRecover, node: f.Node})
		}
	}
	for s.events.Len() > 0 {
		at, e, _ := s.events.Pop()
		s.now = at
		s.eventCount++
		switch e.kind {
		case evArrival:
			s.arrive(e.wf)
		case evActivate:
			s.activate(e.wf, e.job)
		case evComplete:
			s.complete(e)
		case evHeartbeat:
			s.heartbeat(e.node)
		case evFail:
			s.fail(e.node)
		case evRecover:
			s.recover(e.node)
		case evRetry:
			if s.specWake <= s.now {
				s.specWake = simtime.MaxTime
			}
			s.dispatchAll()
		}
	}
	if s.doneCount != len(s.states) {
		for _, ws := range s.states {
			if !ws.Done {
				return nil, fmt.Errorf("refsim: workflow %q stuck with %d tasks remaining (policy %s left schedulable work idle or cluster lacks a slot type)",
					ws.Spec.Name, ws.TasksRemaining(), s.pol.Name())
			}
		}
	}
	return s.result(), nil
}

func (s *simulator) result() *cluster.Result {
	r := &cluster.Result{
		Policy:       s.pol.Name(),
		Config:       s.cfg,
		Makespan:     s.makespan,
		MapBusy:      s.mapBusy,
		ReduceBusy:   s.reduceBusy,
		TasksStarted: s.tasksStarted,
		LocalMaps:    s.localMaps,
		RemoteMaps:   s.remoteMaps,

		SimulatedEvents: s.eventCount,
	}
	for _, ws := range s.states {
		wr := cluster.WorkflowResult{
			Name:     ws.Spec.Name,
			Index:    ws.Index,
			Release:  ws.Spec.Release,
			Deadline: ws.Spec.Deadline,
			Finish:   ws.FinishTime,
		}
		wr.Workspan = wr.Finish.Sub(wr.Release)
		if wr.Finish > wr.Deadline {
			wr.Tardiness = wr.Finish.Sub(wr.Deadline)
		}
		wr.Met = wr.Tardiness == 0
		r.Workflows = append(r.Workflows, wr)
	}
	return r
}

func (s *simulator) arrive(wf int) {
	ws := s.states[wf]
	s.arrivalsLeft--
	s.arrIdx++
	s.pol.WorkflowAdded(ws, s.now)
	for _, r := range ws.Spec.Roots() {
		s.scheduleActivation(wf, r)
	}
	s.dispatchAll()
}

func (s *simulator) scheduleActivation(wf int, job workflow.JobID) {
	if s.cfg.SubmitterOverhead > 0 {
		s.events.Push(s.now.Add(s.cfg.SubmitterOverhead), event{kind: evActivate, wf: wf, job: job})
		return
	}
	s.activateNow(wf, job)
}

func (s *simulator) activate(wf int, job workflow.JobID) {
	s.activateNow(wf, job)
	s.dispatchAll()
}

func (s *simulator) activateNow(wf int, job workflow.JobID) {
	ws := s.states[wf]
	js := &ws.Jobs[job]
	js.Ready = true
	js.ActivatedAt = s.now
	s.pol.JobActivated(ws, job, s.now)
}

func (s *simulator) complete(e event) {
	node := &s.nodes[e.node]
	rt, ok := node.running[e.seq]
	if !ok {
		return
	}
	delete(node.running, e.seq)
	delete(s.attempts, e.seq)
	s.releaseSlot(e.node, e.st)
	if rt.twin != 0 {
		s.killAttempt(rt.twin)
	}
	ws := s.states[e.wf]
	js := &ws.Jobs[e.job]
	if e.st == cluster.MapSlot {
		js.RunningMaps--
		js.DoneMaps++
	} else {
		js.RunningReduces--
		js.DoneReduces++
	}
	ws.RunningTasks--
	left := ws.TaskDone()
	if s.obs != nil {
		s.obs.TaskFinished(s.now, ws, e.job, e.st)
	}
	if e.st == cluster.MapSlot && js.MapsDone() && js.PendingReduces > 0 {
		if rp, ok := s.pol.(cluster.ReducePhasePolicy); ok {
			rp.ReducesReady(ws, e.job, s.now)
		}
	}
	if js.Completed() {
		s.jobCompleted(ws, e.job)
	}
	if left == 0 && !ws.Done {
		ws.Done = true
		ws.FinishTime = s.now
		s.doneCount++
		s.pol.WorkflowCompleted(ws, s.now)
	}
	s.makespan = simtime.MaxOf(s.makespan, s.now)
	s.wakeNode(e.node)
	s.dispatchAll()
}

func (s *simulator) jobCompleted(ws *cluster.WorkflowState, job workflow.JobID) {
	unmet := s.unmet[ws.Index]
	for _, d := range ws.Spec.DependentsOf(job) {
		unmet[d]--
		if unmet[d] == 0 {
			s.scheduleActivation(ws.Index, d)
		}
	}
}

func (s *simulator) heartbeat(node int) {
	s.nodes[node].hbArmed = false
	s.dispatchNode(node)
	s.rearmHeartbeat(node)
}

func (s *simulator) armHeartbeat(node int, at simtime.Time) {
	s.nodes[node].hbArmed = true
	s.events.Push(at, event{kind: evHeartbeat, node: node})
}

func (s *simulator) rearmHeartbeat(node int) {
	if s.doneCount == len(s.states) {
		return
	}
	if s.doneCount == s.arrIdx {
		s.armHeartbeat(node, s.nextTick(node, s.nextArrival()))
		return
	}
	n := &s.nodes[node]
	if s.cfg.SpeculativeSlowdown == 0 && n.freeMap == 0 && n.freeReduce == 0 {
		return
	}
	s.armHeartbeat(node, s.now.Add(s.cfg.HeartbeatInterval))
}

func (s *simulator) wakeNode(node int) {
	if s.cfg.HeartbeatInterval <= 0 || s.nodes[node].hbArmed {
		return
	}
	if s.doneCount == len(s.states) {
		return
	}
	at := s.now
	if s.doneCount == s.arrIdx {
		if na := s.nextArrival(); na > at {
			at = na
		}
	}
	s.armHeartbeat(node, s.nextTick(node, at))
}

func (s *simulator) nextTick(node int, t simtime.Time) simtime.Time {
	first := simtime.Epoch.Add(s.hbOffset(node))
	if t <= first {
		return first
	}
	iv := int64(s.cfg.HeartbeatInterval)
	k := (int64(t.Sub(first)) + iv - 1) / iv
	return first.Add(time.Duration(k * iv))
}

func (s *simulator) hbOffset(node int) time.Duration {
	return time.Duration(int64(s.cfg.HeartbeatInterval) * int64(node) / int64(len(s.nodes)))
}

func (s *simulator) nextArrival() simtime.Time {
	return s.arrivalTimes[s.arrIdx]
}

func (s *simulator) fail(nodeIdx int) {
	node := &s.nodes[nodeIdx]
	if node.down {
		return
	}
	node.down = true
	node.freeMap, node.freeReduce = 0, 0
	s.freeIdx[cluster.MapSlot].clear(nodeIdx)
	s.freeIdx[cluster.ReduceSlot].clear(nodeIdx)
	for seq, rt := range node.running {
		delete(node.running, seq)
		delete(s.attempts, seq)
		ws := s.states[rt.wf]
		if rt.st == cluster.MapSlot {
			s.mapBusy -= rt.end.Sub(s.now)
		} else {
			s.reduceBusy -= rt.end.Sub(s.now)
		}
		if s.obs != nil {
			s.obs.TaskFinished(s.now, ws, rt.job, rt.st)
		}
		if rt.twin != 0 {
			s.detachTwin(rt.twin)
			continue
		}
		if rt.speculative {
			continue
		}
		js := &ws.Jobs[rt.job]
		if rt.st == cluster.MapSlot {
			js.RunningMaps--
			js.PendingMaps++
		} else {
			js.RunningReduces--
			js.PendingReduces++
		}
		ws.RunningTasks--
		ws.ScheduledTasks--
		if rq, ok := s.pol.(cluster.RequeuePolicy); ok {
			rq.TaskRequeued(ws, rt.job, rt.st, s.now)
		}
	}
	s.dispatchAll()
}

func (s *simulator) recover(nodeIdx int) {
	node := &s.nodes[nodeIdx]
	if !node.down {
		return
	}
	node.down = false
	node.freeMap = s.cfg.MapSlotsPerNode
	node.freeReduce = s.cfg.ReduceSlotsPerNode
	if node.freeMap > 0 {
		s.freeIdx[cluster.MapSlot].set(nodeIdx)
	}
	if node.freeReduce > 0 {
		s.freeIdx[cluster.ReduceSlot].set(nodeIdx)
	}
	s.wakeNode(nodeIdx)
	s.dispatchAll()
}

func (s *simulator) dispatchAll() {
	if s.cfg.HeartbeatInterval > 0 {
		return
	}
	for _, st := range []cluster.SlotType{cluster.MapSlot, cluster.ReduceSlot} {
		node := 0
		for {
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

func (s *simulator) takeSlot(node int, st cluster.SlotType) {
	n := &s.nodes[node]
	n.take(st)
	if n.free(st) == 0 {
		s.freeIdx[st].clear(node)
	}
}

func (s *simulator) releaseSlot(node int, st cluster.SlotType) {
	s.nodes[node].release(st)
	s.freeIdx[st].set(node)
}

func (s *simulator) dispatchNode(node int) {
	for _, st := range []cluster.SlotType{cluster.MapSlot, cluster.ReduceSlot} {
		for s.nodes[node].free(st) > 0 {
			if !s.offer(node, st) {
				break
			}
		}
	}
	s.speculate()
}

func (s *simulator) offer(node int, st cluster.SlotType) bool {
	ws, job, ok := s.pol.NextTask(s.now, st)
	if !ok {
		return false
	}
	js := &ws.Jobs[job]
	if !js.Schedulable(st) {
		panic(fmt.Sprintf("refsim: policy %s returned non-schedulable job %d of workflow %q for %v slot",
			s.pol.Name(), job, ws.Spec.Name, st))
	}
	spec := &ws.Spec.Jobs[job]
	delayed := s.delayed[ws.Index]
	local := true
	if st == cluster.MapSlot && s.cfg.Replication > 0 {
		local = s.drawLocality()
		if !local && s.cfg.DelayScheduling > 0 {
			if delayed[job] == 0 {
				delayed[job] = s.now
				s.events.Push(s.now.Add(s.cfg.DelayScheduling), event{kind: evRetry})
				return false
			}
			if s.now.Sub(delayed[job]) < s.cfg.DelayScheduling {
				return false
			}
		}
	}
	if local {
		delayed[job] = 0
	}
	var base time.Duration
	if st == cluster.MapSlot {
		js.PendingMaps--
		js.RunningMaps++
		base = spec.MapTime
	} else {
		js.PendingReduces--
		js.RunningReduces++
		base = spec.ReduceTime
	}
	dur := s.noisy(base)
	if st == cluster.MapSlot && !local {
		dur = time.Duration(float64(dur) * s.cfg.RemotePenalty)
		s.remoteMaps++
	} else if st == cluster.MapSlot && s.cfg.Replication > 0 {
		s.localMaps++
	}
	s.takeSlot(node, st)
	ws.ScheduledTasks++
	ws.RunningTasks++
	s.tasksStarted++
	if st == cluster.MapSlot {
		s.mapBusy += dur
	} else {
		s.reduceBusy += dur
	}
	s.pol.TaskStarted(ws, job, st, s.now)
	if s.obs != nil {
		s.obs.TaskStarted(s.now, ws, job, st, dur)
	}
	s.taskSeq++
	end := s.now.Add(dur)
	rt := runningTask{wf: ws.Index, job: job, st: st, end: end, dur: dur}
	s.nodes[node].running[s.taskSeq] = rt
	s.attempts[s.taskSeq] = attemptRef{node: node, rt: rt}
	if s.cfg.SpeculativeSlowdown != 0 {
		s.overdue[st].push(s.specCrossing(rt), s.taskSeq)
	}
	s.events.Push(end, event{kind: evComplete, wf: ws.Index, job: job, st: st, node: node, seq: s.taskSeq})
	return true
}

func (s *simulator) killAttempt(seq int) {
	ref, ok := s.attempts[seq]
	if !ok {
		return
	}
	delete(s.attempts, seq)
	delete(s.nodes[ref.node].running, seq)
	s.releaseSlot(ref.node, ref.rt.st)
	if ref.rt.st == cluster.MapSlot {
		s.mapBusy -= ref.rt.end.Sub(s.now)
	} else {
		s.reduceBusy -= ref.rt.end.Sub(s.now)
	}
	if s.obs != nil {
		s.obs.TaskFinished(s.now, s.states[ref.rt.wf], ref.rt.job, ref.rt.st)
	}
}

func (s *simulator) detachTwin(seq int) {
	ref, ok := s.attempts[seq]
	if !ok {
		return
	}
	ref.rt.twin = 0
	ref.rt.speculative = false
	s.attempts[seq] = ref
	s.nodes[ref.node].running[seq] = ref.rt
	if s.cfg.SpeculativeSlowdown != 0 {
		s.overdue[ref.rt.st].push(s.specCrossing(ref.rt), seq)
	}
}

func (s *simulator) setTwin(seq, twin int) {
	ref, ok := s.attempts[seq]
	if !ok {
		return
	}
	ref.rt.twin = twin
	s.attempts[seq] = ref
	s.nodes[ref.node].running[seq] = ref.rt
}

func (s *simulator) speculate() {
	if s.cfg.SpeculativeSlowdown == 0 {
		return
	}
	for _, st := range []cluster.SlotType{cluster.MapSlot, cluster.ReduceSlot} {
		for {
			node := s.freeIdx[st].next(0)
			if node < 0 {
				break
			}
			seq, ok := s.popOverdue(st)
			if !ok {
				break
			}
			s.launchSpeculative(node, seq)
		}
	}
	s.armSpeculativeWake()
}

func (s *simulator) popOverdue(st cluster.SlotType) (int, bool) {
	h := &s.overdue[st]
	for {
		e, ok := h.peek()
		if !ok {
			return 0, false
		}
		ref, live := s.attempts[e.seq]
		if !live || ref.rt.twin != 0 || ref.rt.speculative {
			h.pop()
			continue
		}
		if e.at > s.now {
			return 0, false
		}
		h.pop()
		return e.seq, true
	}
}

func (s *simulator) specCrossing(rt runningTask) simtime.Time {
	spec := &s.states[rt.wf].Spec.Jobs[rt.job]
	estimate := spec.MapTime
	if rt.st == cluster.ReduceSlot {
		estimate = spec.ReduceTime
	}
	start := rt.end.Add(-rt.dur)
	return start.Add(time.Duration(s.cfg.SpeculativeSlowdown*float64(estimate)) + time.Nanosecond)
}

func (s *simulator) armSpeculativeWake() {
	next := simtime.MaxTime
	for st := range s.overdue {
		h := &s.overdue[st]
		for {
			e, ok := h.peek()
			if !ok {
				break
			}
			ref, live := s.attempts[e.seq]
			if !live || ref.rt.twin != 0 || ref.rt.speculative {
				h.pop()
				continue
			}
			if e.at > s.now {
				if e.at < next {
					next = e.at
				}
			} else {
				for _, c := range h.es {
					if c.at <= s.now || c.at >= next {
						continue
					}
					if r, ok := s.attempts[c.seq]; ok && r.rt.twin == 0 && !r.rt.speculative {
						next = c.at
					}
				}
			}
			break
		}
	}
	if next < s.specWake {
		s.specWake = next
		s.events.Push(next, event{kind: evRetry})
	}
}

func (s *simulator) launchSpeculative(node, seq int) {
	orig := s.attempts[seq]
	ws := s.states[orig.rt.wf]
	spec := &ws.Spec.Jobs[orig.rt.job]
	base := spec.MapTime
	if orig.rt.st == cluster.ReduceSlot {
		base = spec.ReduceTime
	}
	dur := s.noisy(base)
	s.takeSlot(node, orig.rt.st)
	if orig.rt.st == cluster.MapSlot {
		s.mapBusy += dur
	} else {
		s.reduceBusy += dur
	}
	s.tasksStarted++
	s.taskSeq++
	end := s.now.Add(dur)
	rt := runningTask{
		wf: orig.rt.wf, job: orig.rt.job, st: orig.rt.st,
		end: end, dur: dur, twin: seq, speculative: true,
	}
	s.nodes[node].running[s.taskSeq] = rt
	s.attempts[s.taskSeq] = attemptRef{node: node, rt: rt}
	s.setTwin(seq, s.taskSeq)
	if s.obs != nil {
		s.obs.TaskStarted(s.now, ws, rt.job, rt.st, dur)
	}
	s.events.Push(end, event{kind: evComplete, wf: rt.wf, job: rt.job, st: rt.st, node: node, seq: s.taskSeq})
}

func (s *simulator) drawLocality() bool {
	n := float64(s.cfg.Nodes)
	p := 1 - pow(1-1/n, s.cfg.Replication)
	return s.rng.Float64() < p
}

func pow(x float64, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= x
	}
	return out
}

func (s *simulator) noisy(d time.Duration) time.Duration {
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
