package dsl

import (
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Naive is the strawman queue from Section IV-B: on every scheduling call it
// recomputes the progress lag of every queued workflow and rescans for the
// maximum, costing O(n_w) (or O(n_w log n_w) to produce a full ordering) per
// slot free-up. Fig 13(a) shows it collapsing beyond ~10k queued workflows.
type Naive struct {
	// entries maps workflow ID (dense arrival index) to its entry; nil
	// slots are absent workflows.
	entries []*Entry
	count   int
	stats   *obs.QueueStats
}

var _ Queue = (*Naive)(nil)

// NewNaive returns an empty naive queue.
func NewNaive() *Naive {
	return &Naive{}
}

// Len implements Queue.
func (n *Naive) Len() int { return n.count }

// Instrument implements Queue.
func (n *Naive) Instrument(stats *obs.QueueStats) { n.stats = stats }

// Add implements Queue.
func (n *Naive) Add(e *Entry, now simtime.Time) {
	n.stats.OnInsert(now, e.ID)
	e.refresh(now)
	for e.ID >= len(n.entries) {
		n.entries = append(n.entries, nil)
	}
	n.entries[e.ID] = e
	n.count++
}

// Remove implements Queue.
func (n *Naive) Remove(id int, now simtime.Time) bool {
	if id < 0 || id >= len(n.entries) || n.entries[id] == nil {
		return false
	}
	n.entries[id] = nil
	n.count--
	n.stats.OnDelete(now, id)
	return true
}

// Best implements Queue. It recomputes every entry's priority — the O(n_w)
// rescan the DSL exists to avoid; no head hits are ever recorded here.
func (n *Naive) Best(now simtime.Time) (*Entry, bool) {
	return n.rescan(now, 0)
}

// rescan refreshes every entry and returns the first in queue order among
// those whose startable mask meets want (0 = any entry).
func (n *Naive) rescan(now simtime.Time, want uint8) (*Entry, bool) {
	var best *Entry
	for _, e := range n.entries {
		if e == nil {
			continue
		}
		e.refresh(now)
		if (want == 0 || e.startable&want != 0) && (best == nil || e.before(best)) {
			best = e
		}
	}
	n.stats.OnLagRecomputes(n.count)
	return best, best != nil
}

// Scheduled implements Queue.
func (n *Naive) Scheduled(id int, now simtime.Time) {
	if id >= 0 && id < len(n.entries) && n.entries[id] != nil {
		e := n.entries[id]
		e.rho++
		e.computePrio()
	}
}

// Unscheduled implements Queue.
func (n *Naive) Unscheduled(id int, now simtime.Time) {
	if id >= 0 && id < len(n.entries) && n.entries[id] != nil {
		e := n.entries[id]
		e.rho--
		e.computePrio()
	}
}

// SetStartable implements Queue.
func (n *Naive) SetStartable(id, st int, on bool) {
	if id >= 0 && id < len(n.entries) && n.entries[id] != nil {
		n.entries[id].setStartable(st, on)
	}
}

// BestStartable implements Queue: the same full rescan as Best, keeping only
// entries marked startable on st.
func (n *Naive) BestStartable(now simtime.Time, st int) (*Entry, bool) {
	return n.rescan(now, 1<<st)
}
