// Package dsl implements WOHA's inter-workflow priority queue from Section
// IV-B of the paper: Algorithm 2 ("AssignTask") over the Double Skip List.
//
// Each queued workflow h carries its progress requirement list F_h (from its
// scheduling plan), its true progress ρ_h (tasks scheduled so far), and two
// derived fields: the absolute time of its next progress-requirement change
// (W_h.t) and its current inter-workflow priority, the lag
//
//	W_h.p = F_h(ttd) − ρ_h,
//
// where larger lag means the workflow has fallen further behind its plan and
// deserves slots sooner.
//
// The Double Skip List keeps two correlated ordered structures over the same
// entries: the "ct list" ordered by next-change time and the "priority list"
// ordered by lag. On every AssignTask call only the head of the ct list is
// inspected; the few workflows whose requirement changed since the last call
// are re-prioritized, so the per-call cost is O(changes · log n) instead of
// the naive O(n log n) full rebuild. Head pops — the dominant operation — hit
// the ct skip list's O(1) fast path, and since lags are small dense integers
// that move by ±1 on Scheduled/Unscheduled, the priority side is a bucketed
// lag index (lagindex.go) whose repositionings are O(1) pointer moves rather
// than ordered-set delete+reinsert pairs. The index is partitioned by which
// slot types each workflow can start a task on right now (SetStartable), so
// a work-conserving scheduler's question — the most lagging workflow with
// something for this slot (BestStartable) — is also answered from list heads
// instead of by walking past the workflows that have nothing.
//
// Three Queue implementations exist for the Fig 13(a) throughput comparison:
// the Double Skip List (New), the same algorithm over balanced search trees
// (NewBST), and the naive recompute-and-rescan baseline (NewNaive).
package dsl

import (
	"repro/internal/avl"
	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/skiplist"
)

// Entry is one workflow queued for scheduling.
type Entry struct {
	// ID uniquely identifies the workflow (its arrival index).
	ID int
	// Deadline is the workflow's absolute deadline D_h.
	Deadline simtime.Time
	// Reqs is the progress requirement list F_h, sorted by decreasing TTD.
	Reqs []plan.Req

	// rho is the true progress ρ_h: tasks of this workflow scheduled so far.
	rho int
	// idx is the index of the next requirement not yet in force (W_h.i).
	idx int
	// nextChange is the absolute time the idx-th requirement takes effect
	// (W_h.t), or simtime.MaxTime once all requirements are in force.
	nextChange simtime.Time
	// prio is the current lag F_h(ttd) − ρ_h (W_h.p).
	prio int
	// inCT records whether the entry currently sits in the ct list.
	inCT bool
	// demoteOverdue, when set, drops the entry below every non-overdue
	// workflow once its deadline passes (see Queue docs).
	demoteOverdue bool
	// overdue records that the demotion is in force.
	overdue bool
	// normalized, when set, expresses the lag as parts-per-million of the
	// workflow's total planned tasks instead of an absolute task count, so
	// workflows of very different sizes compete on relative progress. An
	// extension beyond the paper; see core.Options.NormalizedLag.
	normalized bool
	// startable is the 2-bit mask set through Queue.SetStartable: bit st ⇔
	// the workflow has a task it could start on slot type st right now.
	startable uint8

	// Priority-index linkage, owned by the queue the entry is in. For the
	// bucketed lag index these record the entry's class (the startable mask
	// it is filed under), band, bucket and intrusive neighbours; set-backed
	// priority lists use bktKey alone to cache the indexed priority so
	// repositioning knows the old key.
	bktMask uint8
	bktBand int8
	bktKey  int
	bktPrev *Entry
	bktNext *Entry
}

// overdueBias shifts an overdue entry's priority below any achievable lag
// while preserving remaining-work order among overdue entries.
const overdueBias = -(1 << 40)

// NewEntry builds a queue entry for a workflow with the given plan
// requirements. Progress starts at zero.
func NewEntry(id int, deadline simtime.Time, reqs []plan.Req) *Entry {
	return &Entry{ID: id, Deadline: deadline, Reqs: reqs}
}

// NewEntryDemoteOverdue is NewEntry for a queue policy that demotes
// workflows whose deadlines have already passed: the paper's lag formula
// F_h(ttd) − ρ_h keeps an overdue workflow at maximal lag until it finishes,
// which lets a single large miss starve workflows that could still meet
// their deadlines ("zombie cascade"). A demoted entry drops below every
// non-overdue workflow but keeps remaining-lag order among the overdue, so
// missed workflows still finish best-effort from slack capacity. The paper
// does not specify post-deadline behaviour; this is the release's default
// (see core.Options.ServeOverdueFirst for the paper-literal ordering).
func NewEntryDemoteOverdue(id int, deadline simtime.Time, reqs []plan.Req) *Entry {
	return &Entry{ID: id, Deadline: deadline, Reqs: reqs, demoteOverdue: true}
}

// Normalized switches the entry's priority to relative lag (fraction of the
// workflow's planned total, in parts per million) and returns the entry.
func (e *Entry) Normalized() *Entry {
	e.normalized = true
	return e
}

// Progress returns ρ_h, the number of tasks scheduled so far.
func (e *Entry) Progress() int { return e.rho }

// Lag returns the entry's current priority value (may be stale until the
// owning queue refreshes it).
func (e *Entry) Lag() int { return e.prio }

// Startable reports whether the workflow was last marked as having a task
// startable on slot type st (see Queue.SetStartable).
func (e *Entry) Startable(st int) bool { return e.startable&(1<<st) != 0 }

func (e *Entry) setStartable(st int, on bool) {
	if on {
		e.startable |= 1 << st
	} else {
		e.startable &^= 1 << st
	}
}

// before reports whether e precedes o in the queue's total order: greater
// lag first, ties by ascending workflow ID.
func (e *Entry) before(o *Entry) bool {
	if e.prio != o.prio {
		return e.prio > o.prio
	}
	return e.ID < o.ID
}

// refresh advances idx past every requirement whose change time has fired by
// now and recomputes prio and nextChange (Algorithm 2 lines 8-14).
func (e *Entry) refresh(now simtime.Time) {
	for e.idx < len(e.Reqs) && e.changeTime(e.idx) <= now {
		e.idx++
	}
	if e.idx < len(e.Reqs) {
		e.nextChange = e.changeTime(e.idx)
	} else {
		e.nextChange = simtime.MaxTime
	}
	e.overdue = e.demoteOverdue && now >= e.Deadline
	if !e.overdue && e.demoteOverdue && e.nextChange > e.Deadline {
		// Wake exactly at the deadline so the demotion takes effect even
		// after the last requirement change has fired.
		e.nextChange = e.Deadline
	}
	e.computePrio()
}

// computePrio derives the priority from the current requirement index, the
// true progress, and the entry's mode.
func (e *Entry) computePrio() {
	if e.overdue {
		e.prio = overdueBias + e.lagValue(e.totalRequired())
		return
	}
	e.prio = e.lagValue(e.required())
}

// lagValue is required − ρ, normalized to ppm of the plan total when the
// entry is in normalized mode.
func (e *Entry) lagValue(required int) int {
	lag := required - e.rho
	if !e.normalized {
		return lag
	}
	total := e.totalRequired()
	if total <= 0 {
		return lag
	}
	return lag * 1_000_000 / total
}

// required returns F_h currently in force: the cumulative requirement of the
// last fired entry, or 0 before any requirement fires.
func (e *Entry) required() int {
	if e.idx == 0 {
		return 0
	}
	return e.Reqs[e.idx-1].Cum
}

// totalRequired returns the final cumulative requirement (the workflow's
// planned task total), or 0 for an empty requirement list.
func (e *Entry) totalRequired() int {
	if len(e.Reqs) == 0 {
		return 0
	}
	return e.Reqs[len(e.Reqs)-1].Cum
}

// changeTime returns the absolute instant requirement i takes effect:
// D_h − F_h[i].ttd.
func (e *Entry) changeTime(i int) simtime.Time {
	return e.Deadline.Add(-e.Reqs[i].TTD)
}

// Queue is the inter-workflow scheduling queue consulted on every slot
// free-up. Implementations are not safe for concurrent use; the Hadoop
// JobTracker serializes scheduling decisions, and so do our simulators.
type Queue interface {
	// Add inserts a workflow entry, computing its initial priority at now.
	Add(e *Entry, now simtime.Time)
	// Remove deletes the workflow with the given id at time now, reporting
	// whether it was present.
	Remove(id int, now simtime.Time) bool
	// Best returns the entry with the greatest lag at time now. ok is
	// false when the queue is empty.
	Best(now simtime.Time) (e *Entry, ok bool)
	// Scheduled records that one task of workflow id was assigned: ρ_h is
	// incremented and the priority decremented (Algorithm 2 lines 20-23).
	Scheduled(id int, now simtime.Time)
	// Unscheduled reverses one Scheduled call — a running task was lost to
	// a TaskTracker failure and returned to the pending pool.
	Unscheduled(id int, now simtime.Time)
	// SetStartable records whether workflow id has a task it could start
	// on slot type st (0 = map, 1 = reduce) right now. Entries start with
	// nothing startable; unknown ids are ignored.
	SetStartable(id, st int, on bool)
	// BestStartable returns the entry with the greatest lag at time now
	// among those marked startable on slot type st — where a
	// work-conserving scheduler's descent past workflows with no task
	// matching the idle slot would stop. ok is false when there is none.
	BestStartable(now simtime.Time, st int) (e *Entry, ok bool)
	// Len returns the number of queued workflows.
	Len() int
	// Instrument attaches per-operation observability counters (insert,
	// delete, head hit, lag recomputation). nil disables (the default); the
	// instrumented path costs one nil check per operation.
	Instrument(stats *obs.QueueStats)
}

// ctKey orders the ct list by next-change time, ties by workflow ID.
type ctKey struct {
	t  simtime.Time
	id int
}

func ctLess(a, b ctKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.id < b.id
}

// prioKey orders a set-backed priority list by decreasing lag, ties by
// workflow ID.
type prioKey struct {
	p  int
	id int
}

func prioLess(a, b prioKey) bool {
	if a.p != b.p {
		return a.p > b.p
	}
	return a.id < b.id
}

// prioIndex is the priority-side structure of the queue: the bucketed lag
// index for the DSL proper, or an ordered.Set adapter for the BST variant
// that runs Algorithm 2 literally over that structure.
type prioIndex interface {
	insert(e *Entry)
	remove(e *Entry)
	// update repositions e after its prio/overdue fields changed; a no-op
	// when the indexed position is unchanged.
	update(e *Entry)
	// min returns the highest-priority entry, or nil when empty.
	min() *Entry
	// bestStartable returns the highest-priority entry whose startable mask
	// has bit st, or nil when there is none.
	bestStartable(st int) *Entry
	// takeMoves returns and resets the bucket-move count since the last
	// call (always 0 for the set-backed index).
	takeMoves() int
}

// List is the Double Skip List (or Double-BST) queue.
type List struct {
	ct   ordered.Set[ctKey]
	prio prioIndex
	// entries maps workflow ID (arrival index — dense by construction) to
	// its entry; nil slots are absent workflows.
	entries []*Entry
	count   int
	stats   *obs.QueueStats
	// pooled is the ct skip list when it is the backing set (nil for the
	// BST), read for woha_queue_node_reuses_total; seenReuses is the portion
	// already flushed to stats.
	pooled     *skiplist.List[ctKey]
	seenReuses int
}

var _ Queue = (*List)(nil)

// New returns the Double Skip List queue: a seeded skip list for the ct
// side, the bucketed lag index for the priority side. seed drives the skip
// list's deterministic tower PRNG.
func New(seed int64) *List {
	ct := skiplist.New(ctLess, seed)
	return &List{ct: ct, pooled: ct, prio: &lagIndex{}}
}

// NewBST returns the same Algorithm 2 queue backed by AVL trees — the "BST"
// baseline of Fig 13(a).
func NewBST() *List {
	l := &List{ct: avl.New(ctLess)}
	l.prio = newSetPrio(avl.New(prioLess), l)
	return l
}

// Len implements Queue.
func (l *List) Len() int { return l.count }

// Instrument implements Queue.
func (l *List) Instrument(stats *obs.QueueStats) { l.stats = stats }

// entry returns the entry for id, or nil when absent.
func (l *List) entry(id int) *Entry {
	if id < 0 || id >= len(l.entries) {
		return nil
	}
	return l.entries[id]
}

// Add implements Queue.
func (l *List) Add(e *Entry, now simtime.Time) {
	l.stats.OnInsert(now, e.ID)
	e.refresh(now)
	for e.ID >= len(l.entries) {
		l.entries = append(l.entries, nil)
	}
	l.entries[e.ID] = e
	l.count++
	if e.nextChange != simtime.MaxTime {
		l.ct.Insert(ctKey{t: e.nextChange, id: e.ID})
		e.inCT = true
	} else {
		e.inCT = false
	}
	l.prio.insert(e)
}

// Remove implements Queue.
func (l *List) Remove(id int, now simtime.Time) bool {
	e := l.entry(id)
	if e == nil {
		return false
	}
	l.entries[id] = nil
	l.count--
	if e.inCT {
		l.ct.Delete(ctKey{t: e.nextChange, id: e.ID})
	}
	l.prio.remove(e)
	l.stats.OnDelete(now, id)
	return true
}

// settle re-prioritizes every workflow whose next requirement change fired at
// or before now — the while loop of Algorithm 2 (lines 4-19). It returns the
// number of entries re-prioritized; zero is the O(1) head-read fast path.
// A refreshed next-change time is always strictly later than the fired one,
// so the ct reposition is a forward Move that reuses the node in place.
func (l *List) settle(now simtime.Time) int {
	moved := 0
	for {
		k, ok := l.ct.Min()
		if !ok || k.t > now {
			break
		}
		e := l.entries[k.id]
		e.refresh(now)
		moved++
		if e.nextChange != simtime.MaxTime {
			l.ct.Move(k, ctKey{t: e.nextChange, id: e.ID})
		} else {
			l.ct.DeleteMin()
			e.inCT = false
		}
		l.prio.update(e)
	}
	l.stats.OnLagRecomputes(moved)
	if l.stats != nil {
		l.flushStats()
	}
	return moved
}

// flushStats forwards accumulated bucket-move and node-reuse tallies to the
// attached QueueStats. Callers check l.stats != nil first.
func (l *List) flushStats() {
	if m := l.prio.takeMoves(); m > 0 {
		l.stats.OnBucketMoves(m)
	}
	if l.pooled == nil {
		return
	}
	if total := l.pooled.Reuses(); total > l.seenReuses {
		l.stats.OnNodeReuses(total - l.seenReuses)
		l.seenReuses = total
	}
}

// Best implements Queue.
func (l *List) Best(now simtime.Time) (*Entry, bool) {
	settled := l.settle(now)
	e := l.prio.min()
	if e == nil {
		return nil, false
	}
	l.stats.OnHeadHit(now, e.ID, settled)
	return e, true
}

// Scheduled implements Queue.
func (l *List) Scheduled(id int, now simtime.Time) {
	l.adjustProgress(id, +1)
}

// Unscheduled implements Queue.
func (l *List) Unscheduled(id int, now simtime.Time) {
	l.adjustProgress(id, -1)
}

func (l *List) adjustProgress(id, delta int) {
	e := l.entry(id)
	if e == nil {
		return
	}
	e.rho += delta
	e.computePrio()
	l.prio.update(e)
	if l.stats != nil {
		l.flushStats()
	}
}

// SetStartable implements Queue.
func (l *List) SetStartable(id, st int, on bool) {
	e := l.entry(id)
	if e == nil {
		return
	}
	e.setStartable(st, on)
	l.prio.update(e)
}

// BestStartable implements Queue.
func (l *List) BestStartable(now simtime.Time, st int) (*Entry, bool) {
	settled := l.settle(now)
	e := l.prio.bestStartable(st)
	if e == nil {
		return nil, false
	}
	l.stats.OnHeadHit(now, e.ID, settled)
	return e, true
}

// setPrio adapts an ordered.Set to the prioIndex contract for the BST queue
// variant. Each entry's indexed priority is cached in its bktKey field, so
// repositioning is a single Move from the old key (pooled delete+insert
// underneath) with no auxiliary lookup.
type setPrio struct {
	s ordered.Set[prioKey]
	l *List
	// visit is bestStartable's scan callback, bound once in newSetPrio so
	// the scan does not allocate a closure per call; want and found carry
	// its argument and result.
	visit func(prioKey) bool
	want  uint8
	found *Entry
}

func newSetPrio(s ordered.Set[prioKey], l *List) *setPrio {
	p := &setPrio{s: s, l: l}
	p.visit = func(k prioKey) bool {
		if e := l.entries[k.id]; e.startable&p.want != 0 {
			p.found = e
			return false
		}
		return true
	}
	return p
}

var _ prioIndex = (*setPrio)(nil)

func (p *setPrio) insert(e *Entry) {
	e.bktKey = e.prio
	p.s.Insert(prioKey{p: e.prio, id: e.ID})
}

func (p *setPrio) remove(e *Entry) {
	p.s.Delete(prioKey{p: e.bktKey, id: e.ID})
}

func (p *setPrio) update(e *Entry) {
	if e.prio == e.bktKey {
		return
	}
	p.s.Move(prioKey{p: e.bktKey, id: e.ID}, prioKey{p: e.prio, id: e.ID})
	e.bktKey = e.prio
}

func (p *setPrio) min() *Entry {
	k, ok := p.s.Min()
	if !ok {
		return nil
	}
	return p.l.entries[k.id]
}

// bestStartable is the set's natural scan from the head, stopping at the
// first entry with the bit: O(entries skipped), which the lag index's class
// partition exists to avoid.
func (p *setPrio) bestStartable(st int) *Entry {
	p.want, p.found = 1<<st, nil
	p.s.Ascend(p.visit)
	return p.found
}

func (p *setPrio) takeMoves() int { return 0 }
