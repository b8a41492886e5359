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

// master is the live JobTracker. Like Hadoop-1's, it keeps every workflow's
// state and the policy behind one lock, core.mu; what keeps a heartbeat cheap
// is how little of it needs that lock:
//
//  1. A heartbeat with nothing to do (no completions, nothing due, no slot
//     that schedulable work could fill) reads only atomics — the virtual
//     clock, the next-release cursor, the retry hint and the schedulable-work
//     hint — and finishes without acquiring any lock at all (the fast path).
//     Those fields sit on cache lines of their own, apart from the order
//     stack every pipelined heartbeat pushes onto and from the counter the
//     pipeline writes per assignment.
//  2. Every other heartbeat queues its report for the combining pipeline.
//     The heartbeat holding core.mu serves every queued report — releases,
//     completions, then assignment — preferably on the core that served the
//     last pass (the home claim), so the state stays in one core's cache.
//
// Under core.mu the policy, which is single-threaded by contract, is called
// inline at each transition, in the order the single-mutex referee
// (reference_test.go) calls it.
//
// Lock order: core.mu, then the leaves defMu, rel.claim and the admission
// controller; a leaf is never held while another lock is taken.
type master struct {
	// Read by every heartbeat, and once the clock has started written only
	// when a release comes due or a deferral is ruled or retried.
	clock atomic.Pointer[virtualClock]
	rel   releaseIndex
	// nextRetry caches the earliest deferred admission retry instant
	// (MaxTime = none) so the heartbeat fast path checks pending retries
	// with one atomic load, exactly like the release cursor.
	nextRetry atomic.Int64
	core      *policyCore
	ins       *obs.Obs
	stats     *obs.LiveStats
	_         linePad

	// pipe's head is swapped in by every heartbeat bound for the pipeline.
	pipe pipeQueue
	_    linePad

	// schedulable is the fast-path hint: an upper bound on tasks the policy
	// could start right now (pending maps of activated jobs plus pending
	// reduces of jobs whose map phase finished, minus tasks assigned). Zero
	// lets a heartbeat with free slots skip the pipeline entirely; it never
	// undercounts, so no assignment opportunity is missed. It is written per
	// assignment and read only by heartbeats that offer a slot.
	schedulable atomic.Int64
	_           linePad

	cfg Config

	// wfs is every registered workflow, in submission order; guarded by
	// core.mu once the clock has started.
	wfs []*cluster.WorkflowState

	// seq numbers the assignments, and so counts the tasks started;
	// remaining counts workflows not yet completed, and done closes when it
	// reaches zero. Both are guarded by core.mu.
	seq       int64
	remaining int

	startOnce sync.Once
	live      atomic.Bool

	// adm is the admission front door (nil admits everything). deferred
	// holds postponed decisions, guarded by defMu.
	adm      admission.Controller
	defMu    sync.Mutex
	deferred []deferredRelease

	done chan struct{}
}

// linePad keeps the fields on either side of it off a shared cache line, so
// that a write to one does not evict the other from every core reading it.
type linePad [64]byte

// deferredRelease is a workflow whose admission decision was postponed to a
// retry instant.
type deferredRelease struct {
	wf int
	at simtime.Time
}

func newMaster(cfg Config, pol cluster.Policy) *master {
	m := &master{
		cfg:   cfg,
		core:  newPolicyCore(pol),
		adm:   cfg.Admission,
		ins:   cfg.Obs,
		stats: cfg.Obs.NewLiveStats(),
		done:  make(chan struct{}),
	}
	m.nextRetry.Store(int64(simtime.MaxTime))
	return m
}

// register records a workflow before the cluster starts. Registration is
// single-threaded and pre-start only; it takes no lock and refuses once the
// clock has been stamped.
func (m *master) register(w *workflow.Workflow, p *plan.Plan) error {
	if m.live.Load() {
		return errLateRegister(w)
	}
	ws := cluster.NewWorkflowState(len(m.wfs), w, p)
	ws.EnableSchedIndex(nil)
	m.wfs = append(m.wfs, ws)
	m.remaining++
	return nil
}

// start stamps the clock origin, builds the release index, and freezes
// registration.
func (m *master) start() { m.ensureClock() }

// ensureClock stamps the clock origin if start() has not run.
func (m *master) ensureClock() {
	m.startOnce.Do(func() {
		m.rel.build(m.wfs)
		clk := &virtualClock{start: time.Now(), scale: m.cfg.TimeScale}
		m.clock.Store(clk)
		m.live.Store(true)
	})
}

// doneCh closes when every registered workflow has completed.
func (m *master) doneCh() <-chan struct{} { return m.done }

// registered reports the number of registered workflows.
func (m *master) registered() int { return len(m.wfs) }

// Heartbeat serves one TaskTracker report: lock-free clock and cursor reads,
// then the pipeline when the report carries completions, a release or retry
// came due, or free slots meet schedulable work; otherwise nothing more.
func (m *master) Heartbeat(hb Heartbeat) []Assignment {
	clk := m.clock.Load()
	if clk == nil {
		m.ensureClock()
		clk = m.clock.Load()
	}
	if m.ins == nil && len(hb.Completed) == 0 && !m.assignable(hb) && m.idle() {
		return nil
	}
	var t0 time.Time
	if m.ins != nil {
		t0 = time.Now()
	}
	now := clk.now()

	due, retries := m.rel.due(now), m.dueRetries(now)
	book := due != nil || retries != nil || len(hb.Completed) > 0
	var out []Assignment
	if book || m.assignable(hb) {
		out = m.pipeline(hb, due, retries, now, clk)
	} else {
		m.stats.OnFastPath()
	}
	if m.ins != nil {
		m.ins.HeartbeatServed(now, hb.Tracker, time.Since(t0), len(out))
	}
	return out
}

// assignable reports whether hb offers a free slot while the policy may have
// work for one. Each slot type is tested on its own: the counts are
// unchecked RPC input, and a sum could cancel or overflow.
func (m *master) assignable(hb Heartbeat) bool {
	return (hb.FreeMaps > 0 || hb.FreeReds > 0) && m.schedulable.Load() > 0
}

// idle reports that nothing the tracker holds is waiting on the clock: every
// registered workflow has been released and no deferred admission awaits its
// retry instant. A heartbeat that itself brings no completions and no free
// slot that schedulable work could fill then has no use for the current
// instant — reading it (a time.Since) is the larger part of such a
// heartbeat's cost — and, uninstrumented, nobody to report it to. Each
// condition guards a reader of now: rel.due compares it with the next
// release, dueRetries with the earliest retry. Two atomic loads.
func (m *master) idle() bool {
	return m.rel.exhausted() && simtime.Time(m.nextRetry.Load()) == simtime.MaxTime
}

// applyReport books one report: due releases and deferred retries, ruled in
// (decision instant, release-before-retry) merged order, matching the
// simulator's event order, then the completions, grouped by contiguous
// workflow runs. The caller holds core.mu.
func (m *master) applyReport(due []int, retries []deferredRelease, completed []TaskID, tracker int, now simtime.Time) {
	i, j := 0, 0
	for i < len(due) || j < len(retries) {
		if i < len(due) && (j >= len(retries) || m.wfs[due[i]].Spec.Release <= retries[j].at) {
			m.rule(m.wfs[due[i]], now)
			i++
		} else {
			m.rule(m.wfs[retries[j].wf], now)
			j++
		}
	}
	for i := 0; i < len(completed); {
		wi := completed[i].Workflow
		j := i + 1
		for j < len(completed) && completed[j].Workflow == wi {
			j++
		}
		if uint(wi) < uint(len(m.wfs)) {
			m.completeGroup(m.wfs[wi], completed[i:j], tracker, now)
		}
		i = j
	}
}

// rule consults the admission front door for one due submission and applies
// the verdict; with no controller every submission admits on the original
// path. The caller holds core.mu; the controller synchronizes itself and
// takes no tracker locks.
func (m *master) rule(ws *cluster.WorkflowState, now simtime.Time) {
	if m.adm == nil {
		m.admit(ws, now)
		return
	}
	switch d := m.adm.Decide(ws.Spec, ws.Plan, now); d.Verdict {
	case admission.Defer:
		retry := d.RetryAt
		if retry <= now {
			retry = now + 1
		}
		m.addDeferred(deferredRelease{wf: ws.Index, at: retry})
	case admission.Reject:
		ws.Rejected = true
		ws.RejectReason = d.Reason
		ws.CounterOffer = d.CounterOffer
		ws.Done = true
		m.retire()
	default:
		m.admit(ws, now)
	}
}

// retire counts one workflow as finished, rejected or completed; the last
// closes done. The caller holds core.mu.
func (m *master) retire() {
	if m.remaining--; m.remaining == 0 {
		close(m.done)
	}
}

// addDeferred queues one postponed decision and lowers the fast-path retry
// hint. defMu is a leaf lock.
func (m *master) addDeferred(d deferredRelease) {
	m.defMu.Lock()
	m.deferred = append(m.deferred, d)
	if simtime.Time(m.nextRetry.Load()) > d.at {
		m.nextRetry.Store(int64(d.at))
	}
	m.defMu.Unlock()
}

// dueRetries claims every deferred decision whose retry instant has arrived,
// returning them sorted by (retry instant, workflow index), or nil (the
// common case, one atomic load).
func (m *master) dueRetries(now simtime.Time) []deferredRelease {
	if simtime.Time(m.nextRetry.Load()) > now {
		return nil
	}
	m.defMu.Lock()
	var out []deferredRelease
	kept := m.deferred[:0]
	for _, d := range m.deferred {
		if d.at <= now {
			out = append(out, d)
		} else {
			kept = append(kept, d)
		}
	}
	m.deferred = kept
	next := simtime.MaxTime
	for _, d := range kept {
		if d.at < next {
			next = d.at
		}
	}
	m.nextRetry.Store(int64(next))
	m.defMu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].at != out[b].at {
			return out[a].at < out[b].at
		}
		return out[a].wf < out[b].wf
	})
	return out
}

// admit marks a released workflow's root jobs ready, then hands the workflow
// and its roots to the policy. The caller holds core.mu.
func (m *master) admit(ws *cluster.WorkflowState, now simtime.Time) {
	roots := ws.Spec.RootIDs()
	for _, r := range roots {
		js := &ws.Jobs[r]
		js.Ready = true
		js.ActivatedAt = now
		ws.RefreshJob(r)
	}
	m.ins.WorkflowSubmitted(now, ws.Index, ws.Spec.Name)
	m.core.pol.WorkflowAdded(ws, now)
	for _, r := range roots {
		m.notifyActivated(ws, r, now)
	}
}

// completeGroup applies one workflow's reported completions: slot counters,
// reduce-phase unblocking, dependent activation, and workflow-finish
// detection via the O(1) remaining-task countdown, telling the policy of
// each transition as it happens. A completion naming no running task is
// dropped (running). The caller holds core.mu.
func (m *master) completeGroup(ws *cluster.WorkflowState, ids []TaskID, tracker int, now simtime.Time) {
	for _, id := range ids {
		if !running(ws, id) {
			continue
		}
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
		m.ins.TaskCompleted(now, ws.Index, int(id.Job), int(id.Type), tracker)
		if id.Type == cluster.MapSlot && js.MapsDone() && js.PendingReduces > 0 {
			if m.core.reduces != nil {
				m.core.reduces.ReducesReady(ws, id.Job, now)
			}
			m.schedulable.Add(int64(js.PendingReduces))
		}
		if js.Completed() {
			m.activateDependents(ws, id.Job, now)
		}
		if ws.TaskDone() == 0 && !ws.Done {
			ws.Done = true
			ws.FinishTime = now
			var tardiness time.Duration
			if now > ws.Spec.Deadline {
				tardiness = now.Sub(ws.Spec.Deadline)
			}
			m.ins.WorkflowCompleted(now, ws.Index, ws.Spec.Name, tardiness)
			m.core.pol.WorkflowCompleted(ws, now)
			if m.adm != nil {
				m.adm.Complete(ws.Spec, now)
			}
			m.retire()
		}
	}
}

// running reports whether id names a job of ws with a task of id's slot type
// running. A report is unchecked RPC input, so a completion that fails this
// is dropped: a job or slot type out of range would panic, and a repeated
// report would retire tasks that never ran and could finish the workflow
// early. The check is by count, not by task: a repeated report while a
// sibling task of the same job and type runs is not detected, and retires
// the sibling in its place.
func running(ws *cluster.WorkflowState, id TaskID) bool {
	if uint(id.Job) >= uint(len(ws.Jobs)) {
		return false
	}
	js := &ws.Jobs[id.Job]
	switch id.Type {
	case cluster.MapSlot:
		return js.RunningMaps > 0
	case cluster.ReduceSlot:
		return js.RunningReduces > 0
	}
	return false
}

// activateDependents readies every dependent of the completed job whose
// prerequisites all finished and announces it to the policy. The caller
// holds core.mu.
func (m *master) activateDependents(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
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
			dj.Ready = true
			dj.ActivatedAt = now
			ws.RefreshJob(d)
			m.notifyActivated(ws, d, now)
		}
	}
}

// notifyActivated announces an activated job to the policy and adds its
// schedulable tasks to the fast-path hint: a job with maps contributes its
// pending maps; a map-less job starts with its reduces immediately
// schedulable. The caller holds core.mu.
func (m *master) notifyActivated(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	js := &ws.Jobs[job]
	m.ins.JobActivated(now, ws.Index, int(job))
	m.core.pol.JobActivated(ws, job, now)
	if js.PendingMaps > 0 {
		m.schedulable.Add(int64(js.PendingMaps))
	} else {
		m.schedulable.Add(int64(js.PendingReduces))
	}
}

// pipeReq is one heartbeat's order for the pipeline: the report, the
// releases and retries it claimed, and the instant it read. Whichever
// heartbeat holds the policy-core lock serves every order queued (combine),
// so an order is answered by its owner or by a heartbeat that got there
// first; the owner waits on served either way. Orders are pooled: the owner
// takes one, queues it, and puts it back once it is served.
type pipeReq struct {
	hb      Heartbeat
	due     []int
	retries []deferredRelease
	now     simtime.Time
	// out is the answer. It is built in buf, and the owner copies it out after
	// the lock is gone, so that nothing is allocated — and no GC assist is
	// served — while every other heartbeat bound for the pipeline waits.
	out []Assignment
	buf [8]Assignment
	// served is set last, by the combiner; from then on the order is its
	// owner's again and the combiner must not touch it.
	served atomic.Bool
	next   *pipeReq
}

var pipeReqs = sync.Pool{New: func() any { return new(pipeReq) }}

// pipeQueue is the orders awaiting the pipeline: a lock-free stack that
// heartbeats push onto and the combiner empties in one swap.
type pipeQueue struct {
	head atomic.Pointer[pipeReq]
}

func (q *pipeQueue) push(r *pipeReq) {
	for {
		h := q.head.Load()
		r.next = h
		if q.head.CompareAndSwap(h, r) {
			return
		}
	}
}

func (q *pipeQueue) empty() bool { return q.head.Load() == nil }

// take detaches every queued order and returns them oldest first.
func (q *pipeQueue) take() *pipeReq {
	var fifo *pipeReq
	for r := q.head.Swap(nil); r != nil; {
		next := r.next
		r.next, fifo = fifo, r
		r = next
	}
	return fifo
}

const (
	// pipeSpins is how many times a heartbeat polls for its answer before it
	// blocks on the policy-core lock. A combiner spends a microsecond or two
	// on an order, so a waiter normally sees its answer within a few hundred
	// polls; the budget (some 100 µs) is for a combiner that was stalled — a
	// GC phase, a preemption — after which blocking is the cheaper wait.
	pipeSpins = 1 << 16
	// pipeGrace is how many polls a waiter whose order is not the home's
	// leaves a free policy-core lock alone (grace), some 50 µs: time for the
	// home's driver to come back with its next refill and serve both orders
	// on the core that already holds the state, even after a short stall. It
	// is half of pipeSpins, so a home that has gone costs one grace, after
	// which the waiter takes the lock and is home.
	pipeGrace = pipeSpins / 2
	// pipeHomeFresh is how long before a waiter's instant the home must have
	// served a pass for the waiter to grant it the grace: a home idle for
	// longer is not driving, and waiting for it is waste. TaskTrackers
	// heartbeat every few milliseconds from whichever core; on a 2-core host
	// the check halves the graces they pay (inside a burst the home is fresh,
	// and about one pipelined heartbeat in ten still pays one), and without
	// it a one-P race run spins its only P through graces the home cannot
	// end.
	pipeHomeFresh = 100 * time.Microsecond
	// pipePoll is how often, in polls, a waiter tries the lock itself: the
	// combiner may have left just before the order was queued.
	pipePoll = 32
	// pipeRounds bounds how often a combiner goes back for orders queued
	// while it served the last ones, so its own caller is not kept for ever.
	pipeRounds = 64
)

// pipeline passes one report through the pipeline — bookkeeping, policy
// notifications, assignment — and returns what it was assigned. The policy
// is single-threaded by contract, so the pipeline is the tracker's one
// serial point; when heartbeats arrive faster than it serves them, handing
// the lock from core to core costs more than the work under it (every line
// of policy and workflow state follows the lock), and a waiter that sleeps is
// paid for again when it is woken. So a heartbeat queues its order and then
// either finds the lock free and serves the whole queue, its own order
// included, or is served by the heartbeat that holds it: the state stays in
// one core's cache for as long as that core keeps coming back, and a waiter
// polls its own order, not the lock. A waiter that is not home gives the
// home a grace before it takes a free lock, so the state stays put while
// the home keeps coming back.
func (m *master) pipeline(hb Heartbeat, due []int, retries []deferredRelease, now simtime.Time, clk *virtualClock) []Assignment {
	r := pipeReqs.Get().(*pipeReq)
	r.hb, r.due, r.retries, r.now = hb, due, retries, now
	m.pipe.push(r)
	var t0 time.Time
	if m.stats != nil {
		t0 = time.Now()
	}
	grace := m.grace(r, clk)
	held := false
	for i := 0; !r.served.Load(); i++ {
		if i < grace {
			continue
		}
		if i >= pipeSpins {
			m.core.mu.Lock()
		} else if i%pipePoll != 0 || !m.core.mu.TryLock() {
			continue
		}
		held = true
		break
	}
	if m.stats != nil {
		m.stats.OnPipelineLockWait(time.Since(t0))
	}
	if held {
		m.combine(r, clk)
	}
	var out []Assignment
	if len(r.out) > 0 {
		out = append(out, r.out...)
	}
	r.hb, r.due, r.retries, r.out = Heartbeat{}, nil, nil, nil
	r.served.Store(false)
	pipeReqs.Put(r)
	return out
}

// grace is how many polls the owner of order r leaves a free policy-core
// lock alone: pipeGrace when another core is home and served a pass within
// pipeHomeFresh of r's instant, else none. A lone caller is home after its
// first pass, so it pays the grace at most once each time its goroutine
// moves to another P.
func (m *master) grace(r *pipeReq, clk *virtualClock) int {
	if h := m.core.home.Load(); h == nil || h == r {
		return 0
	}
	since := r.now - simtime.Time(m.core.homeAt.Load())
	if float64(since)*clk.scale > float64(pipeHomeFresh) {
		return 0
	}
	return pipeGrace
}

// combine serves the queued orders, oldest first, until the queue is empty
// or pipeRounds refills of it have been served. The caller holds core.mu and
// own is its order: either an earlier combiner served it, and then there is
// nothing this caller must do, or it is still queued and the first round
// takes it, and own becomes the home.
func (m *master) combine(own *pipeReq, clk *virtualClock) {
	defer m.core.mu.Unlock()
	if own.served.Load() {
		return
	}
	if h := m.core.home.Load(); h != own {
		if h != nil {
			m.stats.OnPipelineHandoff()
		}
		m.core.home.Store(own)
	}
	m.core.homeAt.Store(int64(own.now))
	orders := 0
	for n := 0; n < pipeRounds && !m.pipe.empty(); n++ {
		for r := m.pipe.take(); r != nil; orders++ {
			next := r.next
			m.applyReport(r.due, r.retries, r.hb.Completed, r.hb.Tracker, r.now)
			r.out = m.assign(r.hb, r.now, clk, r.buf[:0])
			r.served.Store(true)
			r = next
		}
	}
	m.stats.OnPipelinePass(orders)
}

// assign fills one report's free slots, maps before reduces, asking the
// policy once per slot until it refuses, and appends the assignments to out.
// The caller holds core.mu. A report is unchecked RPC input; out has room
// for what a node of the usual size can take and grows past that.
func (m *master) assign(hb Heartbeat, now simtime.Time, clk *virtualClock, out []Assignment) []Assignment {
	free := [2]int{cluster.MapSlot: hb.FreeMaps, cluster.ReduceSlot: hb.FreeReds}
	for slot := cluster.MapSlot; slot <= cluster.ReduceSlot; slot++ {
		for n := free[slot]; n > 0; n-- {
			a, ok := m.assignOne(slot, hb.Tracker, now, clk)
			if !ok {
				break
			}
			out = append(out, a)
		}
	}
	return out
}

// assignOne consults the policy for one task of the given slot type, debits
// the chosen job's pending counter, and stamps the task. The caller holds
// core.mu.
func (m *master) assignOne(slot cluster.SlotType, tracker int, now simtime.Time, clk *virtualClock) (Assignment, bool) {
	ws, job, ok := m.core.pol.NextTask(now, slot)
	if !ok {
		return Assignment{}, false
	}
	js := &ws.Jobs[job]
	var dur time.Duration
	if slot == cluster.MapSlot {
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
	m.schedulable.Add(-1)
	m.seq++
	m.ins.TaskAssigned(now, ws.Index, int(job), int(slot), tracker, dur)
	m.core.pol.TaskStarted(ws, job, slot, now)
	return Assignment{
		ID:       TaskID{Workflow: ws.Index, Job: job, Type: slot, Seq: int(m.seq)},
		WallTime: clk.toWall(dur),
	}, true
}

// result snapshots the outcome under core.mu.
func (m *master) result() *Result {
	m.core.mu.Lock()
	defer m.core.mu.Unlock()
	r := &Result{Policy: m.core.pol.Name(), TasksStarted: int(m.seq)}
	for i, ws := range m.wfs {
		wr := cluster.WorkflowResult{
			Name:     ws.Spec.Name,
			Index:    i,
			Release:  ws.Spec.Release,
			Deadline: ws.Spec.Deadline,
			Finish:   ws.FinishTime,
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

// releaseIndex is the queue of workflows awaiting release: registrations
// are sorted by release time once at start, and heartbeats check a single
// atomic cursor against the next release time. The arrays are
// immutable after build; only the cursor moves. Claiming due workflows takes
// a small mutex, but the common case — nothing due — is one atomic load and
// one slice read.
type releaseIndex struct {
	// order holds workflow indices sorted by (release time, index); times
	// holds the matching release times, so the hot check never touches
	// workflow state.
	order []int
	times []simtime.Time

	// cursor is the first order entry not yet admitted.
	cursor atomic.Int64
	// claim serializes admissions so each workflow is released exactly once.
	claim sync.Mutex
}

// build sorts the registrations. Called once, before any heartbeat.
func (r *releaseIndex) build(wfs []*cluster.WorkflowState) {
	r.order = make([]int, len(wfs))
	for i := range r.order {
		r.order[i] = i
	}
	sort.SliceStable(r.order, func(a, b int) bool {
		return wfs[r.order[a]].Spec.Release < wfs[r.order[b]].Spec.Release
	})
	r.times = make([]simtime.Time, len(r.order))
	for i, wi := range r.order {
		r.times[i] = wfs[wi].Spec.Release
	}
}

// exhausted reports that every workflow has been claimed by due, so no later
// instant can release anything.
func (r *releaseIndex) exhausted() bool {
	return r.cursor.Load() >= int64(len(r.times))
}

// due claims every workflow whose release time has arrived and returns their
// indices in release order, or nil when nothing is due (the common case,
// which takes no lock and allocates nothing).
func (r *releaseIndex) due(now simtime.Time) []int {
	c := r.cursor.Load()
	if c >= int64(len(r.times)) || r.times[c] > now {
		return nil
	}
	r.claim.Lock()
	defer r.claim.Unlock()
	c = r.cursor.Load() // re-check: another heartbeat may have claimed
	var out []int
	for c < int64(len(r.times)) && r.times[c] <= now {
		out = append(out, r.order[c])
		c++
	}
	r.cursor.Store(c)
	return out
}
