package core

// NextTask against the descent it replaced. The scheduler answers "most
// lagging workflow with a task to start on this slot type" from the queue's
// class heads; refScheduler below answers it the way the scheduler did
// before — order every queued workflow by lag, walk from the head, scan each
// workflow's jobs — with no index, mask or counter of its own. A small
// control plane drives both through one randomized stream of the policy
// callbacks and requires the same (workflow, job, ok) from every NextTask.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dsl"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// refScheduler is the linear descent: the naive queue recomputes every lag,
// the walk visits workflows by (lag descending, index ascending) and stops
// at the first with a startable job, and the job is the startable one of
// least (plan rank, ID), found by scanning.
type refScheduler struct {
	opts    Options
	queue   *dsl.Naive
	entries []*dsl.Entry
	byID    map[int]*cluster.WorkflowState
}

func newRefScheduler(opts Options) *refScheduler {
	return &refScheduler{opts: opts, queue: dsl.NewNaive(), byID: map[int]*cluster.WorkflowState{}}
}

func (r *refScheduler) WorkflowAdded(ws *cluster.WorkflowState, now simtime.Time) {
	e := dsl.NewEntryDemoteOverdue(ws.Index, ws.Spec.Deadline, ws.Plan.Reqs)
	if r.opts.ServeOverdueFirst {
		e = dsl.NewEntry(ws.Index, ws.Spec.Deadline, ws.Plan.Reqs)
	}
	if r.opts.NormalizedLag {
		e.Normalized()
	}
	r.queue.Add(e, now)
	r.entries = append(r.entries, e)
	r.byID[ws.Index] = ws
}

func (r *refScheduler) NextTask(now simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	r.queue.Best(now) // recomputes every entry's lag at now
	sort.Slice(r.entries, func(i, j int) bool {
		a, b := r.entries[i], r.entries[j]
		if a.Lag() != b.Lag() {
			return a.Lag() > b.Lag()
		}
		return a.ID < b.ID
	})
	for _, e := range r.entries {
		ws := r.byID[e.ID]
		best := -1
		for j := range ws.Jobs {
			if ws.Jobs[j].Schedulable(st) && (best < 0 || ws.Plan.Ranks[j] < ws.Plan.Ranks[best]) {
				best = j
			}
		}
		if best >= 0 {
			return ws, workflow.JobID(best), true
		}
	}
	return nil, 0, false
}

func (r *refScheduler) TaskStarted(ws *cluster.WorkflowState, now simtime.Time) {
	r.queue.Scheduled(ws.Index, now)
}

func (r *refScheduler) TaskRequeued(ws *cluster.WorkflowState, now simtime.Time) {
	r.queue.Unscheduled(ws.Index, now)
}

func (r *refScheduler) WorkflowCompleted(ws *cluster.WorkflowState, now simtime.Time) {
	r.queue.Remove(ws.Index, now)
	delete(r.byID, ws.Index)
	for i, e := range r.entries {
		if e.ID == ws.Index {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			break
		}
	}
}

// descentRig is the control plane: it owns the workflow state, mutates the
// job counters the way the simulator and the live trackers do, and fires
// every callback on the scheduler — and on the reference, when there is one
// — after the mutation.
type descentRig struct {
	pol     *Scheduler
	ref     *refScheduler
	now     simtime.Time
	next    int
	live    []*cluster.WorkflowState
	running []runningTask
}

type runningTask struct {
	ws  *cluster.WorkflowState
	job workflow.JobID
	st  cluster.SlotType
}

// submit queues w under p and activates its root jobs.
func (r *descentRig) submit(w *workflow.Workflow, p *plan.Plan) *cluster.WorkflowState {
	ws := cluster.NewWorkflowState(r.next, w, p)
	r.next++
	r.live = append(r.live, ws)
	r.pol.WorkflowAdded(ws, r.now)
	if r.ref != nil {
		r.ref.WorkflowAdded(ws, r.now)
	}
	for _, j := range w.RootIDs() {
		r.activate(ws, j)
	}
	return ws
}

func (r *descentRig) activate(ws *cluster.WorkflowState, job workflow.JobID) {
	ws.Jobs[job].Ready = true
	ws.Jobs[job].ActivatedAt = r.now
	r.pol.JobActivated(ws, job, r.now)
}

// start moves one task of (ws, job) from pending to running.
func (r *descentRig) start(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType) {
	js := &ws.Jobs[job]
	if st == cluster.MapSlot {
		js.PendingMaps--
		js.RunningMaps++
	} else {
		js.PendingReduces--
		js.RunningReduces++
	}
	ws.ScheduledTasks++
	ws.RunningTasks++
	r.pol.TaskStarted(ws, job, st, r.now)
	if r.ref != nil {
		r.ref.TaskStarted(ws, r.now)
	}
	r.running = append(r.running, runningTask{ws, job, st})
}

// take removes and returns running task i.
func (r *descentRig) take(i int) runningTask {
	t := r.running[i]
	r.running[i] = r.running[len(r.running)-1]
	r.running = r.running[:len(r.running)-1]
	return t
}

// requeue returns running task i to the pending pool, as a node failure does.
func (r *descentRig) requeue(i int) {
	t := r.take(i)
	js := &t.ws.Jobs[t.job]
	if t.st == cluster.MapSlot {
		js.RunningMaps--
		js.PendingMaps++
	} else {
		js.RunningReduces--
		js.PendingReduces++
	}
	t.ws.RunningTasks--
	t.ws.ScheduledTasks--
	r.pol.TaskRequeued(t.ws, t.job, t.st, r.now)
	if r.ref != nil {
		r.ref.TaskRequeued(t.ws, r.now)
	}
}

// complete finishes running task i: reduce-phase unblocking, dependent
// activation and workflow completion follow in the trackers' order.
func (r *descentRig) complete(i int) {
	t := r.take(i)
	ws, js := t.ws, &t.ws.Jobs[t.job]
	if t.st == cluster.MapSlot {
		js.RunningMaps--
		js.DoneMaps++
	} else {
		js.RunningReduces--
		js.DoneReduces++
	}
	ws.RunningTasks--
	left := ws.TaskDone()
	if t.st == cluster.MapSlot && js.MapsDone() && js.PendingReduces > 0 {
		r.pol.ReducesReady(ws, t.job, r.now)
	}
	if js.Completed() {
		for _, d := range ws.Spec.DependentsOf(t.job) {
			ready := !ws.Jobs[d].Ready
			for _, p := range ws.Spec.Jobs[d].Prereqs {
				ready = ready && ws.Jobs[p].Completed()
			}
			if ready {
				r.activate(ws, d)
			}
		}
	}
	if left == 0 {
		ws.Done = true
		r.pol.WorkflowCompleted(ws, r.now)
		if r.ref != nil {
			r.ref.WorkflowCompleted(ws, r.now)
		}
		for i, l := range r.live {
			if l == ws {
				r.live = append(r.live[:i], r.live[i+1:]...)
				break
			}
		}
	}
}

// randomFlow draws a workflow of one to five jobs over a random DAG (map-less
// and reduce-less jobs included) and a hand-rolled plan for it: arbitrary
// ranks with ties, and a requirement list rising to the task total.
func randomFlow(rng *rand.Rand, name string, now simtime.Time) (*workflow.Workflow, *plan.Plan) {
	b := workflow.NewBuilder(name)
	n := 1 + rng.Intn(5)
	names := make([]string, n)
	for j := 0; j < n; j++ {
		names[j] = fmt.Sprintf("j%d", j)
		var prereqs []string
		for p := 0; p < j; p++ {
			if rng.Intn(3) == 0 {
				prereqs = append(prereqs, names[p])
			}
		}
		maps, reds := rng.Intn(4), rng.Intn(3)
		if maps+reds == 0 {
			maps = 1
		}
		b.Job(names[j], maps, reds, 10*time.Second, 20*time.Second, prereqs...)
	}
	w := b.MustBuild(now, now.Add(time.Duration(60+rng.Intn(900))*time.Second))
	p := &plan.Plan{Policy: "LPF", Ranks: make([]int, n), Cap: 4, TotalTasks: w.TotalTasks(), Feasible: true}
	for j := range p.Ranks {
		p.Ranks[j] = rng.Intn(n)
	}
	ttd := time.Duration(100+rng.Intn(600)) * time.Second
	for cum := 0; cum < p.TotalTasks; {
		cum = min(cum+1+rng.Intn(4), p.TotalTasks)
		p.Reqs = append(p.Reqs, plan.Req{TTD: ttd, Cum: cum})
		ttd = max(ttd-time.Duration(1+rng.Intn(60))*time.Second, time.Second)
	}
	return w, p
}

func TestNextTaskMatchesLinearDescent(t *testing.T) {
	for mask := 0; mask < 4; mask++ {
		opts := Options{ServeOverdueFirst: mask&1 != 0, NormalizedLag: mask&2 != 0}
		for _, seed := range []int64{1, 20140623} {
			opts, seed := opts, seed
			t.Run(fmt.Sprintf("overdue-first=%v/normalized=%v/seed=%d",
				opts.ServeOverdueFirst, opts.NormalizedLag, seed), func(t *testing.T) {
				t.Parallel()
				opts.Seed = seed
				runDescentSequence(t, opts, seed)
			})
		}
	}
}

func runDescentSequence(t *testing.T, opts Options, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := &descentRig{pol: NewScheduler(opts), ref: newRefScheduler(opts)}
	decisions, assigned, passedOver := 0, 0, 0
	for step := 0; step < 3000; step++ {
		// Mostly small steps; now and then far enough to run deadlines out.
		r.now = r.now.Add(time.Duration(rng.Intn(8000)) * time.Millisecond)
		if rng.Intn(40) == 0 {
			r.now = r.now.Add(time.Duration(rng.Intn(600)) * time.Second)
		}
		switch k := rng.Intn(20); {
		case k < 3 && len(r.live) < 60:
			r.submit(randomFlow(rng, fmt.Sprintf("w%d", r.next), r.now))
		case k < 11: // a slot offer of up to three tasks of one type
			st := cluster.SlotType(rng.Intn(2))
			for n := 1 + rng.Intn(3); n > 0; n-- {
				ws, job, ok := r.pol.NextTask(r.now, st)
				wantWS, wantJob, wantOK := r.ref.NextTask(r.now, st)
				decisions++
				if ok != wantOK || ws != wantWS || job != wantJob {
					t.Fatalf("step %d @%v: NextTask(%v) = (%s, job %d, %v), linear descent (%s, job %d, %v)",
						step, r.now, st, wfName(ws), job, ok, wfName(wantWS), wantJob, wantOK)
				}
				if !ok {
					break
				}
				if head, _ := r.ref.queue.Best(r.now); head.ID != ws.Index {
					passedOver++
				}
				assigned++
				r.start(ws, job, st)
			}
		case k < 17 && len(r.running) > 0:
			r.complete(rng.Intn(len(r.running)))
		case len(r.running) > 0:
			r.requeue(rng.Intn(len(r.running)))
		}
		if r.pol.QueueLen() != len(r.live) {
			t.Fatalf("step %d: %d workflows queued, %d live", step, r.pol.QueueLen(), len(r.live))
		}
	}
	// The stream must have exercised the descent, not just the head.
	if assigned < 500 || passedOver == 0 {
		t.Errorf("%d decisions, %d assignments, %d past the head: stream too thin", decisions, assigned, passedOver)
	}
}

func wfName(ws *cluster.WorkflowState) string {
	if ws == nil {
		return "<none>"
	}
	return ws.Spec.Name
}

// BenchmarkNextTaskDeepQueue is live_drain's policy shape in isolation: 3000
// workflows queued at once, of which 3 % can start a map; the rest have
// every map running and sit ahead of them in lag order, so a walk from the
// head passes some 2900 workflows per decision. One iteration is a map-slot
// decision and the progress round-trip that follows it (TaskStarted, then
// TaskRequeued to restore the state). `go test -bench NextTaskDeepQueue
// -cpuprofile` shows where a deep queue's decision goes.
func BenchmarkNextTaskDeepQueue(b *testing.B) {
	const queued, startableEvery = 3000, 33
	r := &descentRig{pol: NewScheduler(Options{Seed: 13, PolicyName: "LPF"})}
	reqs := []plan.Req{{TTD: 40 * time.Minute, Cum: 4}, {TTD: 20 * time.Minute, Cum: 12}}
	for i := 0; i < queued; i++ {
		// Blocked workflows are due within the hour, so both requirements
		// are in force and they lag by 8 with their four maps running;
		// startable ones are due much later and lag by 0.
		deadline := 30 * time.Minute
		if i%startableEvery == 0 {
			deadline = 10 * time.Hour
		}
		w := workflow.NewBuilder(name(i)).
			Job("j", 4, 8, 10*time.Second, 20*time.Second).
			MustBuild(simtime.Epoch, simtime.Epoch.Add(deadline))
		ws := r.submit(w, &plan.Plan{Policy: "LPF", Ranks: []int{0}, Reqs: reqs, Cap: 4, TotalTasks: 12, Feasible: true})
		if i%startableEvery != 0 {
			for m := 0; m < 4; m++ {
				r.start(ws, 0, cluster.MapSlot)
			}
		}
	}
	r.now = simtime.Epoch.Add(15 * time.Minute)
	round := func() {
		ws, job, ok := r.pol.NextTask(r.now, cluster.MapSlot)
		if !ok {
			b.Fatal("no startable map among the queued workflows")
		}
		r.start(ws, job, cluster.MapSlot)
		r.requeue(len(r.running) - 1)
	}
	round() // settles every requirement that fired in the first 15 minutes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
