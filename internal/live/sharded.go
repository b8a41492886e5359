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

// shardedTracker is the live master at every shard count (Config.Shards).
// Rather than funnel every heartbeat through one mutex, it splits the work
// into three layers with independent synchronization:
//
//  1. Bookkeeping (admission + completion accounting) takes the plane lock
//     shared plus the owning workflow's shard lock, so heartbeats reporting
//     completions for workflows on different shards run in parallel. State
//     transitions that the policy must learn about are recorded as events,
//     not delivered inline. A report that is going into the pipeline anyway
//     is booked there instead, under the locks it will hold in any case.
//  2. The assignment pipeline takes the policy-core lock and then the plane
//     lock exclusive, drains the event queue into the policy (which is
//     contractually single-threaded), and runs the NextTask loops. The
//     exclusive plane lock means the policy reads workflow state with no
//     bookkeeping write racing it. Heartbeats queue their reports for it,
//     and the one holding the lock serves them all (pipeline, combine),
//     preferably on the core that served the last pass (the home claim).
//  3. What a heartbeat with nothing to do (no completions, nothing due, no
//     assignable work) reads — the virtual clock, the next-release cursor,
//     the retry hint, the event count and the schedulable-work hint — is
//     atomics, so it finishes without acquiring any lock at all. Those
//     fields sit on cache lines of their own, apart from the order stack
//     every pipelined heartbeat pushes onto and from the counters the
//     pipeline writes per assignment; the assignment sequence number is a
//     plain counter under the policy-core lock.
//
// Lock ordering: core.mu → plane (write) → shard.mu and plane (read) →
// shard.mu; a shard lock is never held while taking core.mu or the plane
// write lock.
//
// Scheduling outcomes do not depend on the shard count: events reach the
// policy in each workflow's transition order (pushes happen under the shard
// lock), and every event is applied before the next assignment decision.
type shardedTracker struct {
	// Read by every heartbeat, and once the clock has started written only
	// when a release comes due, a deferral is ruled or retried, or a
	// lifecycle event is queued or drained.
	clock atomic.Pointer[virtualClock]
	rel   releaseIndex
	// nextRetry caches the earliest deferred admission retry instant
	// (MaxTime = none) so the heartbeat fast path checks pending retries
	// with one atomic load, exactly like the release cursor.
	nextRetry atomic.Int64
	core      *policyCore
	ins       *obs.Obs
	stats     *obs.LiveStats
	// events ends the group: its count is read by every heartbeat, and the
	// rest of it, written per event, lies past a pad of its own.
	events eventQueue
	_      linePad

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

	// plane is the tracker-wide reader/writer lock that separates the two
	// phases: bookkeeping holds it shared (per-workflow exclusion comes from
	// the shard locks), the assignment pipeline and result snapshots hold it
	// exclusive.
	plane sync.RWMutex

	shards []*wfShard
	wfs    []*liveWorkflow

	// seq numbers the assignments, and so counts the tasks started; it is
	// guarded by core.mu.
	seq int64
	// remaining counts workflows not yet completed; done closes when it
	// reaches zero.
	remaining atomic.Int64

	startOnce sync.Once
	live      atomic.Bool

	// adm is the admission front door (nil admits everything). deferred
	// holds postponed decisions, guarded by defMu.
	adm      admission.Controller
	defMu    sync.Mutex
	deferred []deferredRelease

	done     chan struct{}
	doneOnce sync.Once
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

func newShardedTracker(cfg Config, pol cluster.Policy, nShards int) *shardedTracker {
	st := &shardedTracker{
		cfg:  cfg,
		core: newPolicyCore(pol),
		adm:  cfg.Admission,
		ins:  cfg.Obs,
		done: make(chan struct{}),
	}
	st.nextRetry.Store(int64(simtime.MaxTime))
	st.stats = cfg.Obs.NewLiveStats(nShards)
	st.shards = make([]*wfShard, nShards)
	for i := range st.shards {
		st.shards[i] = &wfShard{id: i}
	}
	return st
}

// register records a workflow before the cluster starts, pinning it to a
// shard round-robin. Registration is single-threaded and pre-start only; it
// takes no lock and refuses once the clock has been stamped.
func (st *shardedTracker) register(w *workflow.Workflow, p *plan.Plan) error {
	if st.live.Load() {
		return errLateRegister(w)
	}
	i := len(st.wfs)
	ws := cluster.NewWorkflowState(i, w, p)
	ws.EnableSchedIndex(nil)
	st.wfs = append(st.wfs, &liveWorkflow{
		ws:    ws,
		shard: st.shards[i%len(st.shards)],
	})
	st.remaining.Add(1)
	return nil
}

// start stamps the clock origin, builds the release index, and freezes
// registration.
func (st *shardedTracker) start() { st.ensureClock() }

// ensureClock stamps the clock origin if start() has not run.
func (st *shardedTracker) ensureClock() {
	st.startOnce.Do(func() {
		st.rel.build(st.wfs)
		clk := &virtualClock{start: time.Now(), scale: st.cfg.TimeScale}
		st.clock.Store(clk)
		st.live.Store(true)
	})
}

// doneCh closes when every registered workflow has completed.
func (st *shardedTracker) doneCh() <-chan struct{} { return st.done }

// registered reports the number of registered workflows.
func (st *shardedTracker) registered() int { return len(st.wfs) }

// Heartbeat serves one TaskTracker report through the three-layer pipeline:
// lock-free clock/cursor reads, bookkeeping only when the report carries
// completions or a release came due, and the exclusive assignment pipeline
// only when policy events are pending or free slots meet schedulable work.
// Bookkeeping runs under the shared lock unless the report is bound for the
// pipeline, which then does it.
func (st *shardedTracker) Heartbeat(hb Heartbeat) []Assignment {
	clk := st.clock.Load()
	if clk == nil {
		st.ensureClock()
		clk = st.clock.Load()
	}
	if st.ins == nil && len(hb.Completed) == 0 && !st.assignable(hb) && st.idle() {
		return nil
	}
	var t0 time.Time
	if st.ins != nil {
		t0 = time.Now()
	}
	now := clk.now()

	locked := false
	due, retries := st.rel.due(now), st.dueRetries(now)
	book := due != nil || retries != nil || len(hb.Completed) > 0
	piped := st.events.pending() || st.assignable(hb)
	if book && !piped {
		st.bookkeep(due, retries, hb.Completed, hb.Tracker, now)
		due, retries, hb.Completed = nil, nil, nil
		piped = st.events.pending()
		locked = true
	}
	var out []Assignment
	if piped {
		out = st.pipeline(hb, due, retries, now, clk)
		locked = true
	}
	if !locked {
		st.stats.OnFastPath()
	}
	if st.ins != nil {
		st.ins.HeartbeatServed(now, hb.Tracker, time.Since(t0), len(out))
	}
	return out
}

// assignable reports whether hb offers a free slot while the policy may have
// work for one. Each slot type is tested on its own: the counts are
// unchecked RPC input, and a sum could cancel or overflow.
func (st *shardedTracker) assignable(hb Heartbeat) bool {
	return (hb.FreeMaps > 0 || hb.FreeReds > 0) && st.schedulable.Load() > 0
}

// idle reports that nothing the tracker holds is waiting on the clock or on
// the policy: every registered workflow has been released, no deferred
// admission awaits its retry instant, and no lifecycle event is queued. A
// heartbeat that itself brings no completions and no free slot that
// schedulable work could fill then has no use for the current instant —
// reading it (a time.Since) is the larger part of such a heartbeat's cost —
// and, uninstrumented, nobody to report it to. Each condition guards a
// reader of now: rel.due compares it with the next release, dueRetries with
// the earliest retry, and pending events send the heartbeat into the
// pipeline, which stamps what it assigns. Three atomic loads.
func (st *shardedTracker) idle() bool {
	return st.rel.exhausted() &&
		simtime.Time(st.nextRetry.Load()) == simtime.MaxTime &&
		!st.events.pending()
}

// bookkeep applies admissions and completion accounting under the shared
// plane lock, taking each workflow's shard lock only for its own updates.
// Completions are grouped by contiguous workflow runs so a report full of
// same-workflow tasks locks its shard once. Due releases and deferred
// retries are ruled in (decision instant, release-before-retry) merged
// order, matching the simulator's event order.
func (st *shardedTracker) bookkeep(due []int, retries []deferredRelease, completed []TaskID, tracker int, now simtime.Time) {
	st.plane.RLock()
	st.applyReport(due, retries, completed, tracker, now)
	st.plane.RUnlock()
}

// applyReport is bookkeep's work. The caller holds the plane lock, shared or
// exclusive.
func (st *shardedTracker) applyReport(due []int, retries []deferredRelease, completed []TaskID, tracker int, now simtime.Time) {
	i, j := 0, 0
	for i < len(due) || j < len(retries) {
		if i < len(due) && (j >= len(retries) || st.wfs[due[i]].ws.Spec.Release <= retries[j].at) {
			st.rule(st.wfs[due[i]], now)
			i++
		} else {
			st.rule(st.wfs[retries[j].wf], now)
			j++
		}
	}
	for i := 0; i < len(completed); {
		wi := completed[i].Workflow
		j := i + 1
		for j < len(completed) && completed[j].Workflow == wi {
			j++
		}
		if uint(wi) < uint(len(st.wfs)) {
			st.completeGroup(st.wfs[wi], completed[i:j], tracker, now)
		}
		i = j
	}
}

// rule consults the admission front door for one due submission and applies
// the verdict; with no controller every submission admits on the original
// path. Called under the shared plane lock; the controller synchronizes
// itself and takes no tracker locks, so concurrent heartbeats' rulings
// serialize inside it.
func (st *shardedTracker) rule(lw *liveWorkflow, now simtime.Time) {
	if st.adm == nil {
		st.admit(lw, now)
		return
	}
	ws := lw.ws
	switch d := st.adm.Decide(ws.Spec, ws.Plan, now); d.Verdict {
	case admission.Defer:
		retry := d.RetryAt
		if retry <= now {
			retry = now + 1
		}
		st.addDeferred(deferredRelease{wf: ws.Index, at: retry})
	case admission.Reject:
		st.lockShard(lw.shard)
		ws.Rejected = true
		ws.RejectReason = d.Reason
		ws.CounterOffer = d.CounterOffer
		ws.Done = true
		lw.shard.mu.Unlock()
		if st.remaining.Add(-1) == 0 {
			st.doneOnce.Do(func() { close(st.done) })
		}
	default:
		st.admit(lw, now)
	}
}

// addDeferred queues one postponed decision and lowers the fast-path retry
// hint. defMu is a leaf lock.
func (st *shardedTracker) addDeferred(d deferredRelease) {
	st.defMu.Lock()
	st.deferred = append(st.deferred, d)
	if simtime.Time(st.nextRetry.Load()) > d.at {
		st.nextRetry.Store(int64(d.at))
	}
	st.defMu.Unlock()
}

// dueRetries claims every deferred decision whose retry instant has arrived,
// returning them sorted by (retry instant, workflow index), or nil (the
// common case, one atomic load).
func (st *shardedTracker) dueRetries(now simtime.Time) []deferredRelease {
	if simtime.Time(st.nextRetry.Load()) > now {
		return nil
	}
	st.defMu.Lock()
	var out []deferredRelease
	kept := st.deferred[:0]
	for _, d := range st.deferred {
		if d.at <= now {
			out = append(out, d)
		} else {
			kept = append(kept, d)
		}
	}
	st.deferred = kept
	next := simtime.MaxTime
	for _, d := range kept {
		if d.at < next {
			next = d.at
		}
	}
	st.nextRetry.Store(int64(next))
	st.defMu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].at != out[b].at {
			return out[a].at < out[b].at
		}
		return out[a].wf < out[b].wf
	})
	return out
}

// admit marks a released workflow's root jobs ready and records the release
// for the policy core. The event is pushed under the shard lock, so it
// cannot interleave with this workflow's completion events.
func (st *shardedTracker) admit(lw *liveWorkflow, now simtime.Time) {
	st.lockShard(lw.shard)
	ws := lw.ws
	for _, r := range ws.Spec.RootIDs() {
		js := &ws.Jobs[r]
		js.Ready = true
		js.ActivatedAt = now
		ws.RefreshJob(r)
	}
	st.events.push(policyEvent{kind: evWorkflowReleased, wf: lw, now: now})
	lw.shard.mu.Unlock()
}

// completeGroup applies one workflow's reported completions under its shard
// lock: slot counters, reduce-phase unblocking, dependent activation, and
// workflow-finish detection via the O(1) remaining-task countdown. A
// completion naming no running task is dropped (running).
func (st *shardedTracker) completeGroup(lw *liveWorkflow, ids []TaskID, tracker int, now simtime.Time) {
	st.lockShard(lw.shard)
	ws := lw.ws
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
		st.ins.TaskCompleted(now, ws.Index, int(id.Job), int(id.Type), tracker)
		if id.Type == cluster.MapSlot && js.MapsDone() && js.PendingReduces > 0 {
			st.events.push(policyEvent{kind: evReducesReady, wf: lw, job: id.Job, now: now})
		}
		if js.Completed() {
			st.activateDependents(lw, id.Job, now)
		}
		if ws.TaskDone() == 0 && !ws.Done {
			ws.Done = true
			ws.FinishTime = now
			lw.finish = now
			st.events.push(policyEvent{kind: evWorkflowCompleted, wf: lw, now: now})
			if st.adm != nil {
				// The controller is a leaf in the lock order: it takes no
				// tracker locks, so releasing the commitment under the shard
				// lock cannot cycle.
				st.adm.Complete(ws.Spec, now)
			}
			if st.remaining.Add(-1) == 0 {
				st.doneOnce.Do(func() { close(st.done) })
			}
		}
	}
	lw.shard.mu.Unlock()
}

// running reports whether id names a job of ws with a task of id's slot type
// running. A report is unchecked RPC input, so a completion that fails this
// is dropped: a job or slot type out of range would panic, and a repeated
// report would retire tasks that never ran and could finish the workflow
// early. The check is by count, not by task: a repeated report while a
// sibling task of the same job and type runs is not detected, and retires
// the sibling in its place. The caller holds the workflow's shard lock.
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
// prerequisites all finished, recording each activation for the policy core.
// The caller holds the workflow's shard lock.
func (st *shardedTracker) activateDependents(lw *liveWorkflow, job workflow.JobID, now simtime.Time) {
	ws := lw.ws
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
			st.events.push(policyEvent{kind: evJobActivated, wf: lw, job: d, now: now})
		}
	}
}

// pipeReq is one heartbeat's order for the exclusive pipeline: the report,
// the releases and retries it claimed, and the instant it read. Whichever
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
	// the locks are gone, so that nothing is allocated — and no GC assist is
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

// pipeline passes one report through the exclusive pipeline — bookkeeping,
// pending policy events, assignment — and returns what it was assigned. The
// policy is single-threaded by contract, so the pipeline is the tracker's one
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
func (st *shardedTracker) pipeline(hb Heartbeat, due []int, retries []deferredRelease, now simtime.Time, clk *virtualClock) []Assignment {
	r := pipeReqs.Get().(*pipeReq)
	r.hb, r.due, r.retries, r.now = hb, due, retries, now
	st.pipe.push(r)
	var t0 time.Time
	if st.stats != nil {
		t0 = time.Now()
	}
	grace := st.grace(r, clk)
	held := false
	for i := 0; !r.served.Load(); i++ {
		if i < grace {
			continue
		}
		if i >= pipeSpins {
			st.core.mu.Lock()
		} else if i%pipePoll != 0 || !st.core.mu.TryLock() {
			continue
		}
		held = true
		break
	}
	if st.stats != nil {
		st.stats.OnPipelineLockWait(time.Since(t0))
	}
	if held {
		st.combine(r, clk)
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
func (st *shardedTracker) grace(r *pipeReq, clk *virtualClock) int {
	if h := st.core.home.Load(); h == nil || h == r {
		return 0
	}
	since := r.now - simtime.Time(st.core.homeAt.Load())
	if float64(since)*clk.scale > float64(pipeHomeFresh) {
		return 0
	}
	return pipeGrace
}

// combine serves the queued orders, oldest first, until the queue is empty
// or pipeRounds refills of it have been served. The caller holds core.mu and
// own is its order: either an earlier combiner served it, and then there is
// nothing this caller must do, or it is still queued and the first round
// takes it, and own becomes the home. Holding core.mu serializes the
// single-threaded policy; holding the plane write lock freezes all
// shared-lock bookkeeping so the policy's reads of workflow state are
// race-free.
func (st *shardedTracker) combine(own *pipeReq, clk *virtualClock) {
	defer st.core.mu.Unlock()
	if own.served.Load() {
		return
	}
	if h := st.core.home.Load(); h != own {
		if h != nil {
			st.stats.OnPipelineHandoff()
		}
		st.core.home.Store(own)
	}
	st.core.homeAt.Store(int64(own.now))
	st.plane.Lock()
	defer st.plane.Unlock()
	orders := 0
	for n := 0; n < pipeRounds && !st.pipe.empty(); n++ {
		for r := st.pipe.take(); r != nil; orders++ {
			next := r.next
			st.applyReport(r.due, r.retries, r.hb.Completed, r.hb.Tracker, r.now)
			st.drainEvents()
			r.out = st.assign(r.hb, r.now, clk, r.buf[:0])
			r.served.Store(true)
			r = next
		}
	}
	st.stats.OnPipelinePass(orders)
}

// assign fills one report's free slots, maps before reduces, asking the
// policy once per slot until it refuses, and appends the assignments to out.
// The caller holds the pipeline locks. A report is unchecked RPC input; out
// has room for what a node of the usual size can take and grows past that.
func (st *shardedTracker) assign(hb Heartbeat, now simtime.Time, clk *virtualClock, out []Assignment) []Assignment {
	free := [2]int{cluster.MapSlot: hb.FreeMaps, cluster.ReduceSlot: hb.FreeReds}
	for slot := cluster.MapSlot; slot <= cluster.ReduceSlot; slot++ {
		for n := free[slot]; n > 0; n-- {
			a, ok := st.assignOne(slot, hb.Tracker, now, clk)
			if !ok {
				break
			}
			out = append(out, a)
		}
	}
	return out
}

// lockShard takes one shard's lock, recording the wait when instrumented.
func (st *shardedTracker) lockShard(sh *wfShard) {
	if st.stats == nil {
		sh.mu.Lock()
		return
	}
	t0 := time.Now()
	sh.mu.Lock()
	st.stats.OnShardLockWait(time.Since(t0))
}

// drainEvents applies every queued lifecycle event to the policy and folds
// the schedulable-work deltas into the fast-path hint. The caller holds
// core.mu and the plane write lock, so no push can interleave and the batch
// is complete.
func (st *shardedTracker) drainEvents() {
	if !st.events.pending() {
		return
	}
	batch := st.events.drain()
	for i := range batch {
		st.schedulable.Add(st.apply(&batch[i]))
	}
	st.stats.OnEventBatch(len(batch))
	st.events.recycle(batch)
}

// assignOne consults the policy for one task of the given slot type, debits
// the chosen job's pending counter, and stamps the task. The caller holds the
// pipeline locks.
func (st *shardedTracker) assignOne(slot cluster.SlotType, tracker int, now simtime.Time, clk *virtualClock) (Assignment, bool) {
	ws, job, ok := st.core.pol.NextTask(now, slot)
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
	st.schedulable.Add(-1)
	st.seq++
	st.ins.TaskAssigned(now, ws.Index, int(job), int(slot), tracker, dur)
	st.core.pol.TaskStarted(ws, job, slot, now)
	return Assignment{
		ID:       TaskID{Workflow: ws.Index, Job: job, Type: slot, Seq: int(st.seq)},
		WallTime: clk.toWall(dur),
	}, true
}

// result snapshots the outcome. Taking the pipeline locks first flushes any
// events still queued after the final completion, so the policy and
// instrumentation see every workflow's full lifecycle before the snapshot.
func (st *shardedTracker) result() *Result {
	st.core.mu.Lock()
	st.plane.Lock()
	defer func() {
		st.plane.Unlock()
		st.core.mu.Unlock()
	}()
	st.drainEvents()
	r := &Result{Policy: st.core.pol.Name(), TasksStarted: int(st.seq)}
	for i, lw := range st.wfs {
		ws := lw.ws
		wr := cluster.WorkflowResult{
			Name:     ws.Spec.Name,
			Index:    i,
			Release:  ws.Spec.Release,
			Deadline: ws.Spec.Deadline,
			Finish:   lw.finish,
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
