package live

import (
	"slices"
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
// Under core.mu the combiner claims what has come due by each order's
// instant, books the state transitions through cluster.WorkflowState's
// methods — the ones the simulator books with — and calls the policy, which
// is single-threaded by contract, inline at each of them, in the order the
// simulator calls it. Delivered at the instants a heartbeat-mode simulator
// fires its events, the master makes the simulator's assignments and
// admission rulings, one for one (differential_test.go).
//
// Lock order: core.mu, then the admission controller.
type master struct {
	// Read by every heartbeat, and once the clock has started written only
	// when a release comes due or a deferral is ruled or retried.
	clock atomic.Pointer[virtualClock]
	rel   releaseIndex
	// nextRetry mirrors the earliest deferred admission retry instant
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
	// holds postponed decisions by retry instant, those sharing one in the
	// order they were deferred; guarded by core.mu.
	adm      admission.Controller
	deferred []deferredRelease

	// step, when set before the clock starts, makes the clock a stepped one
	// (virtualClock.step); only tests set it.
	step *atomic.Int64

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
	m.wfs = append(m.wfs, ws)
	m.remaining++
	return nil
}

// ensureClock stamps the clock origin, builds the release index, and
// freezes registration, the first time it is called.
func (m *master) ensureClock() {
	m.startOnce.Do(func() {
		m.rel.build(m.wfs)
		clk := &virtualClock{start: time.Now(), scale: m.cfg.TimeScale, step: m.step}
		m.clock.Store(clk)
		m.live.Store(true)
	})
}

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
	var out []Assignment
	if len(hb.Completed) > 0 || m.due(now) || m.assignable(hb) {
		out = m.pipeline(hb, now, clk)
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
// condition guards a reader of now (due). Two atomic loads.
func (m *master) idle() bool {
	return m.rel.exhausted() && simtime.Time(m.nextRetry.Load()) == simtime.MaxTime
}

// due reports whether a release or a deferred retry has come due by now:
// two atomic loads. The combiner claims it (release).
func (m *master) due(now simtime.Time) bool {
	return m.rel.next() <= now || simtime.Time(m.nextRetry.Load()) <= now
}

// release rules on every submission whose decision instant has arrived by
// now — fresh releases in (release time, index) order merged with deferred
// retries in (retry instant, deferral) order, a retry first at a tie — the
// simulator's event order. The caller holds core.mu.
func (m *master) release(now simtime.Time) {
	for {
		rel, ret := m.rel.next(), simtime.MaxTime
		if len(m.deferred) > 0 {
			ret = m.deferred[0].at
		}
		switch {
		case ret <= now && ret <= rel:
			wf := m.deferred[0].wf
			m.deferred = slices.Delete(m.deferred, 0, 1)
			m.noteRetry()
			m.rule(m.wfs[wf], now)
		case rel <= now:
			m.rule(m.wfs[m.rel.pop()], now)
		default:
			return
		}
	}
}

// applyReport books one report's completions, grouped by contiguous
// workflow runs. The caller holds core.mu.
func (m *master) applyReport(completed []TaskID, tracker int, now simtime.Time) {
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
// the verdict. The caller holds core.mu; the controller synchronizes itself
// and takes no tracker locks.
func (m *master) rule(ws *cluster.WorkflowState, now simtime.Time) {
	switch v, retry := ws.Rule(m.adm, now); v {
	case admission.Defer:
		// After every retry due at or before this one: the simulator re-rules
		// the workflows deferred to one instant in the order it deferred them.
		i := sort.Search(len(m.deferred), func(i int) bool { return m.deferred[i].at > retry })
		m.deferred = slices.Insert(m.deferred, i, deferredRelease{wf: ws.Index, at: retry})
		m.noteRetry()
	case admission.Reject:
		m.retire()
	default:
		m.admit(ws, now)
	}
}

// noteRetry publishes the earliest deferred retry instant to the fast path.
// The caller holds core.mu.
func (m *master) noteRetry() {
	next := simtime.MaxTime
	if len(m.deferred) > 0 {
		next = m.deferred[0].at
	}
	m.nextRetry.Store(int64(next))
}

// retire counts one workflow as finished, rejected or completed; the last
// closes done. The caller holds core.mu.
func (m *master) retire() {
	if m.remaining--; m.remaining == 0 {
		close(m.done)
	}
}

// admit hands a released workflow to the policy, then activates its root
// jobs one by one, as the simulator does. The caller holds core.mu.
func (m *master) admit(ws *cluster.WorkflowState, now simtime.Time) {
	m.ins.WorkflowSubmitted(now, ws.Index, ws.Spec.Name)
	m.core.pol.WorkflowAdded(ws, now)
	for _, r := range ws.Spec.RootIDs() {
		m.activate(ws, r, now)
	}
}

// completeGroup applies one workflow's reported completions, telling the
// policy of each transition — reduce phase unblocked, dependents activated,
// workflow finished — as it happens. A completion naming no running task is
// dropped (running). The caller holds core.mu.
func (m *master) completeGroup(ws *cluster.WorkflowState, ids []TaskID, tracker int, now simtime.Time) {
	for _, id := range ids {
		if !running(ws, id) {
			continue
		}
		reducesReady, jobDone, done := ws.FinishTask(id.Job, id.Type, now)
		m.ins.TaskCompleted(now, ws.Index, int(id.Job), int(id.Type), tracker)
		if reducesReady {
			if m.core.reduces != nil {
				m.core.reduces.ReducesReady(ws, id.Job, now)
			}
			m.schedulable.Add(int64(ws.Jobs[id.Job].PendingReduces))
		}
		if jobDone {
			ws.ReadyDependents(id.Job, func(d workflow.JobID) { m.activate(ws, d, now) })
		}
		if done {
			if m.ins != nil {
				m.ins.WorkflowCompleted(now, ws.Index, ws.Spec.Name, ws.Outcome().Tardiness)
			}
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

// activate readies a job, announces it to the policy, and adds its
// schedulable tasks to the fast-path hint: a job with maps contributes its
// pending maps; a map-less job starts with its reduces immediately
// schedulable. The caller holds core.mu.
func (m *master) activate(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	ws.ActivateJob(job, now)
	m.ins.JobActivated(now, ws.Index, int(job))
	m.core.pol.JobActivated(ws, job, now)
	js := &ws.Jobs[job]
	if js.PendingMaps > 0 {
		m.schedulable.Add(int64(js.PendingMaps))
	} else {
		m.schedulable.Add(int64(js.PendingReduces))
	}
}

// pipeReq is one heartbeat's order for the pipeline: the report and the
// instant it read. Whichever heartbeat holds the policy-core lock serves
// every order queued (combine), so an order is answered by its owner or by a
// heartbeat that got there first; the owner waits on served either way.
// Orders are pooled: the owner takes one, queues it, and puts it back once it
// is served.
type pipeReq struct {
	hb  Heartbeat
	now simtime.Time
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
func (m *master) pipeline(hb Heartbeat, now simtime.Time, clk *virtualClock) []Assignment {
	r := pipeReqs.Get().(*pipeReq)
	r.hb, r.now = hb, now
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
	r.hb, r.out = Heartbeat{}, nil
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
			m.release(r.now)
			m.applyReport(r.hb.Completed, r.hb.Tracker, r.now)
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

// assignOne consults the policy for one task of the given slot type, starts
// it, and stamps it. The caller holds core.mu.
func (m *master) assignOne(slot cluster.SlotType, tracker int, now simtime.Time, clk *virtualClock) (Assignment, bool) {
	ws, job, ok := m.core.pol.NextTask(now, slot)
	if !ok {
		return Assignment{}, false
	}
	dur := ws.StartTask(job, slot)
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
	for _, ws := range m.wfs {
		r.Workflows = append(r.Workflows, ws.Outcome())
	}
	return r
}

// releaseIndex is the queue of workflows awaiting release: registrations
// are sorted by release time once at start, and heartbeats check a single
// atomic cursor against the next release time. The arrays are immutable
// after build; only the cursor moves, and only under core.mu (pop), so the
// common case — nothing due — is one atomic load and one slice read.
type releaseIndex struct {
	// order holds workflow indices sorted by (release time, index); times
	// holds the matching release times, so the hot check never touches
	// workflow state.
	order []int
	times []simtime.Time

	// cursor is the first order entry not yet released.
	cursor atomic.Int64
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

// exhausted reports that every workflow has been released, so no later
// instant can release anything.
func (r *releaseIndex) exhausted() bool {
	return r.cursor.Load() >= int64(len(r.times))
}

// next returns the release time of the first workflow not yet released, or
// MaxTime when there is none.
func (r *releaseIndex) next() simtime.Time {
	if c := r.cursor.Load(); c < int64(len(r.times)) {
		return r.times[c]
	}
	return simtime.MaxTime
}

// pop releases the next workflow and returns its index. The caller holds
// core.mu and has seen next() come due.
func (r *releaseIndex) pop() int {
	c := r.cursor.Load()
	r.cursor.Store(c + 1)
	return r.order[c]
}
