package live

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/simtime"
)

// wfShard is one partition of the sharded tracker's workflow state. Every
// workflow is pinned to a shard at registration (index modulo shard count);
// holding the shard's lock grants write access to the bookkeeping state of
// every workflow pinned there, so completions for workflows on different
// shards never contend.
type wfShard struct {
	id int
	mu sync.Mutex
}

// liveWorkflow is the sharded tracker's per-workflow record: the shared
// runtime state, the shard whose lock guards it, and the finish stamp.
type liveWorkflow struct {
	ws    *cluster.WorkflowState
	shard *wfShard
	// finish is written once under the shard lock when the workflow's last
	// task completes, and read by result() under the exclusive plane lock.
	finish simtime.Time
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
func (r *releaseIndex) build(wfs []*liveWorkflow) {
	r.order = make([]int, len(wfs))
	for i := range r.order {
		r.order[i] = i
	}
	sort.SliceStable(r.order, func(a, b int) bool {
		return wfs[r.order[a]].ws.Spec.Release < wfs[r.order[b]].ws.Spec.Release
	})
	r.times = make([]simtime.Time, len(r.order))
	for i, wi := range r.order {
		r.times[i] = wfs[wi].ws.Spec.Release
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

// eventQueue carries workflow lifecycle events from the bookkeeping shards
// to the policy core. Producers push while holding their workflow's shard
// lock (under the shared plane lock), which makes the queue order consistent
// with each workflow's state transitions; the assignment pipeline drains it
// under the exclusive plane lock, when no producer can be running. pending()
// is a single atomic load so the heartbeat fast path can skip the pipeline
// without touching the mutex.
type eventQueue struct {
	mu sync.Mutex
	n  atomic.Int64
	q  []policyEvent
	// spare recycles the previous drained batch to keep the steady state
	// allocation-free.
	spare []policyEvent
}

func (e *eventQueue) push(ev policyEvent) {
	e.mu.Lock()
	e.q = append(e.q, ev)
	e.n.Store(int64(len(e.q)))
	e.mu.Unlock()
}

// pending reports whether any events await the policy core.
func (e *eventQueue) pending() bool { return e.n.Load() > 0 }

// drain swaps out the queued batch. The caller must hold the exclusive plane
// lock (so no push can interleave) and should hand the batch back via
// recycle once applied.
func (e *eventQueue) drain() []policyEvent {
	e.mu.Lock()
	batch := e.q
	e.q = e.spare[:0]
	e.spare = nil
	e.n.Store(0)
	e.mu.Unlock()
	return batch
}

// recycle returns a drained batch's backing array for reuse.
func (e *eventQueue) recycle(batch []policyEvent) {
	e.mu.Lock()
	if e.spare == nil {
		e.spare = batch[:0]
	}
	e.mu.Unlock()
}
