package live

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// JobTracker is the test-only referee: a live master that owns all workflow
// state behind one mutex, exactly like Hadoop's JobTracker, and answers
// heartbeats with task assignments chosen by the pluggable policy. Every
// policy call happens inline, so it is the plain statement of what the
// master (master.go) must decide; NewReference (export_test.go) builds a
// Cluster on it for the equivalence tests.
type JobTracker struct {
	cfg Config

	mu     sync.Mutex
	pol    cluster.Policy
	states []*cluster.WorkflowState

	clock     virtualClock
	seq       int
	remaining int // workflows not yet completed
	started   int // tasks started
	finish    []simtime.Time

	// relOrder holds workflow indices sorted by release time; relCursor is
	// the first index not yet handed to the policy. Each heartbeat inspects
	// only workflows actually due instead of scanning every registration.
	// Both are built when the clock is stamped and guarded by mu.
	relOrder  []int
	relCursor int

	// adm is the admission front door (nil admits everything); deferred
	// holds workflows whose decision was postponed, re-ruled once their
	// retry instant passes. Guarded by mu.
	adm      admission.Controller
	deferred []deferredRelease

	// live flips when the clock is stamped; register fails loudly after
	// that, making pre-start registration explicitly single-threaded.
	live atomic.Bool

	// ins is the optional runtime instrumentation; all its methods no-op on
	// a nil receiver, so the uninstrumented hot path pays one nil check.
	ins *obs.Obs

	done chan struct{}
}

func newJobTracker(cfg Config, pol cluster.Policy) *JobTracker {
	return &JobTracker{cfg: cfg, pol: pol, adm: cfg.Admission, ins: cfg.Obs, done: make(chan struct{})}
}

// register records a workflow before the cluster starts. Registration is
// single-threaded and pre-start only; the tracker takes no lock here and
// refuses once the clock has been stamped.
func (jt *JobTracker) register(w *workflow.Workflow, p *plan.Plan) error {
	if jt.live.Load() {
		return errLateRegister(w)
	}
	ws := cluster.NewWorkflowState(len(jt.states), w, p)
	ws.EnableSchedIndex(nil)
	jt.states = append(jt.states, ws)
	jt.finish = append(jt.finish, 0)
	jt.remaining++
	return nil
}

// start stamps the clock origin and freezes registration.
func (jt *JobTracker) start() {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.activateLocked()
}

// ensureClock stamps the clock origin if start() has not run, so heartbeats
// delivered outside Run (see Cluster.DeliverHeartbeat) see sane virtual time.
func (jt *JobTracker) ensureClock() {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if !jt.live.Load() {
		jt.activateLocked()
	}
}

// activateLocked stamps the clock, sorts registrations by release time for
// the releaseDue cursor, and closes registration. Callers hold mu.
func (jt *JobTracker) activateLocked() {
	jt.clock = virtualClock{start: time.Now(), scale: jt.cfg.TimeScale}
	jt.relOrder = make([]int, len(jt.states))
	for i := range jt.relOrder {
		jt.relOrder[i] = i
	}
	sort.SliceStable(jt.relOrder, func(a, b int) bool {
		return jt.states[jt.relOrder[a]].Spec.Release < jt.states[jt.relOrder[b]].Spec.Release
	})
	jt.live.Store(true)
}

// doneCh closes when every registered workflow has completed.
func (jt *JobTracker) doneCh() <-chan struct{} { return jt.done }

// registered reports the number of registered workflows.
func (jt *JobTracker) registered() int { return len(jt.states) }

// Heartbeat is the single RPC of the control plane: a tracker reports
// completions and free slots; the JobTracker returns assignments.
func (jt *JobTracker) Heartbeat(hb Heartbeat) []Assignment {
	var t0 time.Time
	if jt.ins != nil {
		t0 = time.Now()
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	now := jt.clock.now()
	jt.releaseDue(now)
	for _, id := range hb.Completed {
		jt.complete(id, hb.Tracker, now)
	}
	var out []Assignment
	freeMaps, freeReds := hb.FreeMaps, hb.FreeReds
	for freeMaps > 0 {
		a, ok := jt.assign(cluster.MapSlot, hb.Tracker, now)
		if !ok {
			break
		}
		out = append(out, a)
		freeMaps--
	}
	for freeReds > 0 {
		a, ok := jt.assign(cluster.ReduceSlot, hb.Tracker, now)
		if !ok {
			break
		}
		out = append(out, a)
		freeReds--
	}
	if jt.ins != nil {
		jt.ins.HeartbeatServed(now, hb.Tracker, time.Since(t0), len(out))
	}
	return out
}

// releaseDue rules on every submission whose decision instant has arrived —
// fresh releases (sorted by release time when the clock was stamped, so the
// cursor advances monotonically) merged with deferred retries — and hands the
// admitted ones to the policy. The merge processes items in (decision
// instant, release-before-retry, submission index) order, mirroring the
// simulator's event order, so an anchored admission controller rules in the
// same sequence on both control planes.
func (jt *JobTracker) releaseDue(now simtime.Time) {
	for {
		rel := -1
		if jt.relCursor < len(jt.relOrder) {
			if i := jt.relOrder[jt.relCursor]; jt.states[i].Spec.Release <= now {
				rel = i
			}
		}
		ret := jt.dueRetry(now)
		switch {
		case rel >= 0 && (ret < 0 || jt.states[rel].Spec.Release <= jt.deferred[ret].at):
			jt.relCursor++
			jt.rule(jt.states[rel], now)
		case ret >= 0:
			wf := jt.deferred[ret].wf
			jt.deferred = append(jt.deferred[:ret], jt.deferred[ret+1:]...)
			jt.rule(jt.states[wf], now)
		default:
			return
		}
	}
}

// dueRetry returns the index into deferred of the earliest retry due by now
// (ties broken by workflow index), or -1.
func (jt *JobTracker) dueRetry(now simtime.Time) int {
	best := -1
	for i, d := range jt.deferred {
		if d.at > now {
			continue
		}
		if best < 0 || d.at < jt.deferred[best].at ||
			(d.at == jt.deferred[best].at && d.wf < jt.deferred[best].wf) {
			best = i
		}
	}
	return best
}

// rule consults the admission front door for one due submission and applies
// the verdict: admitted workflows reach the policy exactly as before, defers
// join the retry list, and rejects resolve immediately without the policy
// ever seeing them.
func (jt *JobTracker) rule(ws *cluster.WorkflowState, now simtime.Time) {
	if jt.adm != nil {
		switch d := jt.adm.Decide(ws.Spec, ws.Plan, now); d.Verdict {
		case admission.Defer:
			retry := d.RetryAt
			if retry <= now {
				retry = now + 1
			}
			jt.deferred = append(jt.deferred, deferredRelease{wf: ws.Index, at: retry})
			return
		case admission.Reject:
			ws.Rejected = true
			ws.RejectReason = d.Reason
			ws.CounterOffer = d.CounterOffer
			ws.Done = true
			jt.remaining--
			if jt.remaining == 0 {
				close(jt.done)
			}
			return
		}
	}
	jt.ins.WorkflowSubmitted(now, ws.Index, ws.Spec.Name)
	jt.pol.WorkflowAdded(ws, now)
	for _, r := range ws.Spec.RootIDs() {
		jt.activate(ws, r, now)
	}
}

func (jt *JobTracker) activate(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	js := &ws.Jobs[job]
	js.Ready = true
	js.ActivatedAt = now
	ws.RefreshJob(job)
	jt.ins.JobActivated(now, ws.Index, int(job))
	jt.pol.JobActivated(ws, job, now)
}

// assign asks the policy for one task of the given slot type on behalf of
// the given tracker.
func (jt *JobTracker) assign(st cluster.SlotType, tracker int, now simtime.Time) (Assignment, bool) {
	ws, job, ok := jt.pol.NextTask(now, st)
	if !ok {
		return Assignment{}, false
	}
	js := &ws.Jobs[job]
	var dur time.Duration
	if st == cluster.MapSlot {
		js.PendingMaps--
		js.RunningMaps++
		dur = ws.Spec.Jobs[job].MapTime
	} else {
		js.PendingReduces--
		js.RunningReduces++
		dur = ws.Spec.Jobs[job].ReduceTime
	}
	ws.ScheduledTasks++
	ws.RunningTasks++
	ws.RefreshJob(job)
	jt.started++
	jt.seq++
	jt.ins.TaskAssigned(now, ws.Index, int(job), int(st), tracker, dur)
	jt.pol.TaskStarted(ws, job, st, now)
	return Assignment{
		ID:       TaskID{Workflow: ws.Index, Job: job, Type: st, Seq: jt.seq},
		WallTime: jt.clock.toWall(dur),
	}, true
}

// complete applies a reported task completion.
func (jt *JobTracker) complete(id TaskID, tracker int, now simtime.Time) {
	ws := jt.states[id.Workflow]
	js := &ws.Jobs[id.Job]
	if id.Type == cluster.MapSlot {
		js.RunningMaps--
		js.DoneMaps++
	} else {
		js.RunningReduces--
		js.DoneReduces++
	}
	ws.RunningTasks--
	ws.RefreshJob(id.Job)
	jt.ins.TaskCompleted(now, ws.Index, int(id.Job), int(id.Type), tracker)
	if id.Type == cluster.MapSlot && js.MapsDone() && js.PendingReduces > 0 {
		if rp, ok := jt.pol.(cluster.ReducePhasePolicy); ok {
			rp.ReducesReady(ws, id.Job, now)
		}
	}
	if js.Completed() {
		jt.jobCompleted(ws, id.Job, now)
	}
	if ws.TaskDone() == 0 && !ws.Done {
		ws.Done = true
		ws.FinishTime = now
		jt.finish[ws.Index] = now
		if jt.ins != nil {
			var tardiness time.Duration
			if now > ws.Spec.Deadline {
				tardiness = now.Sub(ws.Spec.Deadline)
			}
			jt.ins.WorkflowCompleted(now, ws.Index, ws.Spec.Name, tardiness)
		}
		jt.pol.WorkflowCompleted(ws, now)
		if jt.adm != nil {
			jt.adm.Complete(ws.Spec, now)
		}
		jt.remaining--
		if jt.remaining == 0 {
			close(jt.done)
		}
	}
}

// jobCompleted activates dependents whose prerequisites all finished.
func (jt *JobTracker) jobCompleted(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	for _, d := range ws.Spec.DependentsOf(job) {
		dj := &ws.Jobs[d]
		if dj.Ready {
			continue
		}
		ready := true
		for _, p := range ws.Spec.Jobs[d].Prereqs {
			if !ws.Jobs[p].Completed() {
				ready = false
				break
			}
		}
		if ready {
			jt.activate(ws, d, now)
		}
	}
}

// result snapshots the outcome.
func (jt *JobTracker) result() *Result {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	r := &Result{Policy: jt.pol.Name(), TasksStarted: jt.started}
	for i, ws := range jt.states {
		wr := cluster.WorkflowResult{
			Name:     ws.Spec.Name,
			Index:    i,
			Release:  ws.Spec.Release,
			Deadline: ws.Spec.Deadline,
			Finish:   jt.finish[i],
		}
		if ws.Rejected {
			wr.Rejected = true
			wr.RejectReason = ws.RejectReason
			wr.CounterOffer = ws.CounterOffer
			r.Workflows = append(r.Workflows, wr)
			continue
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
