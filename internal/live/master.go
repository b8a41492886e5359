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
// state and the policy behind one lock, mu, and answers each report that
// needs the lock in turn under it; what keeps a heartbeat cheap is how
// little of it needs that lock:
//
//  1. A heartbeat with nothing to do (no completions, nothing due, no slot
//     that schedulable work could fill) reads only atomics — the virtual
//     clock, the next-release cursor, the retry hint and the schedulable-work
//     hint — and finishes without acquiring any lock at all (the fast path).
//     Those fields sit on cache lines of their own, apart from the counter
//     the locked step writes per assignment and from the lock.
//  2. Every other heartbeat takes mu and books its own report (serve): the
//     releases and retries due by its instant, its completions, then its
//     free slots.
//
// Under mu the master books the state transitions through
// cluster.WorkflowState's methods — the ones the simulator books with — and
// calls the policy, which is single-threaded by contract, inline at each of
// them, in the order the simulator calls it. Delivered at the instants a
// heartbeat-mode simulator fires its events, the master makes the
// simulator's assignments and admission rulings, one for one
// (differential_test.go).
//
// Lock order: mu, then the admission controller.
type master struct {
	// Read by every heartbeat, and once the clock has started written only
	// when a release comes due or a deferral is ruled or retried.
	clock atomic.Pointer[virtualClock]
	rel   releaseIndex
	// nextRetry mirrors the earliest deferred admission retry instant
	// (MaxTime = none) so the heartbeat fast path checks pending retries
	// with one atomic load, exactly like the release cursor.
	nextRetry atomic.Int64
	ins       *obs.Obs
	stats     *obs.LiveStats
	_         linePad

	// schedulable is the fast-path hint: an upper bound on tasks the policy
	// could start right now (pending maps of activated jobs plus pending
	// reduces of jobs whose map phase finished, minus tasks assigned). Zero
	// lets a heartbeat with free slots skip the lock entirely; it never
	// undercounts, so no assignment opportunity is missed. It is written per
	// assignment and read only by heartbeats that offer a slot.
	schedulable atomic.Int64
	_           linePad

	// mu is the tracker's one lock. The policy is single-threaded by
	// contract, so every NextTask consultation and lifecycle notification
	// runs under it, and so does every write to workflow state. reduces is
	// pol's ReducePhasePolicy view, nil if unimplemented; booked is the
	// latest instant a report was booked at (serve).
	mu      sync.Mutex
	pol     cluster.Policy
	reduces cluster.ReducePhasePolicy
	booked  simtime.Time

	cfg Config

	// wfs is every registered workflow, in submission order; guarded by mu
	// once the clock has started.
	wfs []*cluster.WorkflowState

	// seq numbers the assignments, and so counts the tasks started;
	// remaining counts workflows not yet completed, and done closes when it
	// reaches zero. Both are guarded by mu.
	seq       int64
	remaining int

	startOnce sync.Once
	live      atomic.Bool

	// adm is the admission front door (nil admits everything). deferred
	// holds postponed decisions by retry instant, those sharing one in the
	// order they were deferred; guarded by mu.
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
		pol:   pol,
		adm:   cfg.Admission,
		ins:   cfg.Obs,
		stats: cfg.Obs.NewLiveStats(),
		done:  make(chan struct{}),
	}
	m.reduces, _ = pol.(cluster.ReducePhasePolicy)
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
// then the locked step (serve) when the report carries completions, a
// release or retry came due, or free slots meet schedulable work; otherwise
// nothing more.
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
		out, now = m.serve(hb, now, clk)
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
// two atomic loads. The locked step claims it (release).
func (m *master) due(now simtime.Time) bool {
	return m.rel.next() <= now || simtime.Time(m.nextRetry.Load()) <= now
}

// release rules on every submission whose decision instant has arrived by
// now — fresh releases in (release time, index) order merged with deferred
// retries in (retry instant, deferral) order, a retry first at a tie — the
// simulator's event order. The caller holds mu.
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
// workflow runs. The caller holds mu.
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
// the verdict. The caller holds mu; the controller synchronizes itself
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
// The caller holds mu.
func (m *master) noteRetry() {
	next := simtime.MaxTime
	if len(m.deferred) > 0 {
		next = m.deferred[0].at
	}
	m.nextRetry.Store(int64(next))
}

// retire counts one workflow as finished, rejected or completed; the last
// closes done. The caller holds mu.
func (m *master) retire() {
	if m.remaining--; m.remaining == 0 {
		close(m.done)
	}
}

// admit hands a released workflow to the policy, then activates its root
// jobs one by one, as the simulator does. The caller holds mu.
func (m *master) admit(ws *cluster.WorkflowState, now simtime.Time) {
	m.ins.WorkflowSubmitted(now, ws.Index, ws.Spec.Name)
	m.pol.WorkflowAdded(ws, now)
	for _, r := range ws.Spec.RootIDs() {
		m.activate(ws, r, now)
	}
}

// completeGroup applies one workflow's reported completions, telling the
// policy of each transition — reduce phase unblocked, dependents activated,
// workflow finished — as it happens. A completion naming no running task is
// dropped (running). The caller holds mu.
func (m *master) completeGroup(ws *cluster.WorkflowState, ids []TaskID, tracker int, now simtime.Time) {
	for _, id := range ids {
		if !running(ws, id) {
			continue
		}
		reducesReady, jobDone, done := ws.FinishTask(id.Job, id.Type, now)
		m.ins.TaskCompleted(now, ws.Index, int(id.Job), int(id.Type), tracker)
		if reducesReady {
			if m.reduces != nil {
				m.reduces.ReducesReady(ws, id.Job, now)
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
			m.pol.WorkflowCompleted(ws, now)
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
// schedulable. The caller holds mu.
func (m *master) activate(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	ws.ActivateJob(job, now)
	m.ins.JobActivated(now, ws.Index, int(job))
	m.pol.JobActivated(ws, job, now)
	js := &ws.Jobs[job]
	if js.PendingMaps > 0 {
		m.schedulable.Add(int64(js.PendingMaps))
	} else {
		m.schedulable.Add(int64(js.PendingReduces))
	}
}

// serve books one report under mu, in the simulator's order of calls: the
// releases and retries due by now (release), the report's completions
// (applyReport), then its free slots (assign). It returns the answer and the
// instant the report was booked at. A heartbeat reads its instant before it
// waits for the lock, so a report that waited may carry an instant earlier
// than one already booked; it is booked at the later one, and the booked
// instants never regress. The answer is built in an array on the stack and
// copied out once the lock is gone, so nothing is allocated while other
// heartbeats wait, and a report assigned nothing allocates nothing.
func (m *master) serve(hb Heartbeat, now simtime.Time, clk *virtualClock) ([]Assignment, simtime.Time) {
	var t0 time.Time
	if m.stats != nil {
		t0 = time.Now()
	}
	m.mu.Lock()
	if m.stats != nil {
		m.stats.OnLockWait(time.Since(t0))
	}
	now = max(now, m.booked)
	m.booked = now
	m.release(now)
	m.applyReport(hb.Completed, hb.Tracker, now)
	var buf [8]Assignment
	out := m.assign(hb, now, clk, buf[:0])
	m.mu.Unlock()
	if len(out) == 0 {
		return nil, now
	}
	return append([]Assignment(nil), out...), now
}

// assign fills one report's free slots, maps before reduces, asking the
// policy once per slot until it refuses, and appends the assignments to out.
// The caller holds mu. A report is unchecked RPC input; out has room
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
// it, and stamps it. The caller holds mu.
func (m *master) assignOne(slot cluster.SlotType, tracker int, now simtime.Time, clk *virtualClock) (Assignment, bool) {
	ws, job, ok := m.pol.NextTask(now, slot)
	if !ok {
		return Assignment{}, false
	}
	dur := ws.StartTask(job, slot)
	m.schedulable.Add(-1)
	m.seq++
	m.ins.TaskAssigned(now, ws.Index, int(job), int(slot), tracker, dur)
	m.pol.TaskStarted(ws, job, slot, now)
	return Assignment{
		ID:       TaskID{Workflow: ws.Index, Job: job, Type: slot, Seq: int(m.seq)},
		WallTime: clk.toWall(dur),
	}, true
}

// result snapshots the outcome under mu.
func (m *master) result() *Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &Result{Policy: m.pol.Name(), TasksStarted: int(m.seq)}
	for _, ws := range m.wfs {
		r.Workflows = append(r.Workflows, ws.Outcome())
	}
	return r
}

// releaseIndex is the queue of workflows awaiting release: registrations
// are sorted by release time once at start, and heartbeats check a single
// atomic cursor against the next release time. The arrays are immutable
// after build; only the cursor moves, and only under mu (pop), so the
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
// mu and has seen next() come due.
func (r *releaseIndex) pop() int {
	c := r.cursor.Load()
	r.cursor.Store(c + 1)
	return r.order[c]
}
