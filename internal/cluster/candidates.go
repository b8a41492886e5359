package cluster

import (
	"time"

	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Speculation candidates are the running attempts speculate may duplicate:
// live, untwinned attempts that carry their task outright. They are kept per
// job phase (one workflow's job and slot type), in a list threaded through
// the attempt arena (attemptRec.cprev/cnext) and ordered by (crossing
// instant, launch sequence). The crossing is start + SpeculativeSlowdown ×
// the phase's estimate, an offset the phase keeps for all its attempts, so
// launches append to their phase's tail in order by construction; only a
// survivor detached from its twin (detachTwin) walks back from the tail to
// its place, and the launch sequence breaks its tie with a sibling launched
// on the same tick. A small heap per slot type merges the phases' heads.
//
// An attempt leaves its list the moment it stops being a candidate — it
// completes, is twinned, killed, or lost to a failure — so the heads are
// always live and nothing stale is ever popped or scanned. The minimum of
// the two heaps is the old scan's victim: the scan maximised
// elapsed − threshold = now − crossing, with the lowest launch sequence
// winning a tie.
type candidates struct {
	// phases is indexed by phase id (Simulator.phase).
	phases []phaseCands
	// heads[st] is a binary min-heap over the non-empty phases of slot type
	// st, each entry carrying its head's (crossing, seq) inline.
	heads [2][]candHead
}

// phaseCands is one phase's candidate list and its place in the heads heap.
type phaseCands struct {
	// off is how long after its start an attempt of the phase crosses its
	// straggler threshold: the first instant at which elapsed >
	// SpeculativeSlowdown × estimate holds.
	off        time.Duration
	head, tail int32
	// pos is 1 + the index of the phase's entry in its heads heap, 0 while
	// the list is empty.
	pos int32
}

// crossing returns the instant attempt r of the phase crosses its straggler
// threshold.
func (pc *phaseCands) crossing(r *attemptRec) simtime.Time {
	return r.end.Add(pc.off - r.dur)
}

// candHead is the heads-heap entry of phase p.
type candHead struct {
	at  simtime.Time
	seq int32
	p   int32
}

func (e *candHead) before(o *candHead) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// reset empties every list and heap, keeping their storage.
func (c *candidates) reset() {
	c.phases = c.phases[:0]
	c.heads[0], c.heads[1] = c.heads[0][:0], c.heads[1][:0]
}

// grow adds the phases of workflow w, map then reduce for each job, as
// Simulator.phase numbers them.
func (c *candidates) grow(w *workflow.Workflow, slowdown float64) {
	for i := range w.Jobs {
		for _, estimate := range [2]time.Duration{w.Jobs[i].MapTime, w.Jobs[i].ReduceTime} {
			c.phases = append(c.phases, phaseCands{
				off:  time.Duration(slowdown*float64(estimate)) + time.Nanosecond,
				head: nilAttempt, tail: nilAttempt,
			})
		}
	}
}

// add files attempt h in phase p's list and returns its crossing.
func (c *candidates) add(recs []attemptRec, h, p int32) simtime.Time {
	r := &recs[h]
	r.cand = true
	pc := &c.phases[p]
	// The phase's attempts share their offset, so starts order them as
	// crossings do.
	start := r.end.Add(-r.dur)
	prev := pc.tail
	for prev != nilAttempt {
		o := &recs[prev]
		if os := o.end.Add(-o.dur); os < start || (os == start && o.seq < r.seq) {
			break
		}
		prev = o.cprev
	}
	r.cprev = prev
	if prev == nilAttempt {
		r.cnext = pc.head
		pc.head = h
	} else {
		r.cnext = recs[prev].cnext
		recs[prev].cnext = h
	}
	if r.cnext == nilAttempt {
		pc.tail = h
	} else {
		recs[r.cnext].cprev = h
	}
	if prev == nilAttempt {
		c.rehead(recs, p)
	}
	return start.Add(pc.off)
}

// remove takes candidate h out of phase p's list.
func (c *candidates) remove(recs []attemptRec, h, p int32) {
	r := &recs[h]
	r.cand = false
	pc := &c.phases[p]
	if r.cprev == nilAttempt {
		pc.head = r.cnext
	} else {
		recs[r.cprev].cnext = r.cnext
	}
	if r.cnext == nilAttempt {
		pc.tail = r.cprev
	} else {
		recs[r.cnext].cprev = r.cprev
	}
	if r.cprev == nilAttempt {
		c.rehead(recs, p)
	}
}

// rehead re-keys phase p's heap entry after its head changed: it enters the
// heap, moves, or leaves it with its last candidate.
func (c *candidates) rehead(recs []attemptRec, p int32) {
	pc := &c.phases[p]
	hs := &c.heads[p&1]
	if pc.head == nilAttempt {
		i, last := int(pc.pos-1), len(*hs)-1
		pc.pos = 0
		if i != last {
			(*hs)[i] = (*hs)[last]
			c.phases[(*hs)[i].p].pos = int32(i + 1)
		}
		*hs = (*hs)[:last]
		if i != last {
			c.sift(*hs, i)
		}
		return
	}
	r := &recs[pc.head]
	e := candHead{at: pc.crossing(r), seq: r.seq, p: p}
	if pc.pos == 0 {
		*hs = append(*hs, e)
		pc.pos = int32(len(*hs))
	} else {
		(*hs)[pc.pos-1] = e
	}
	c.sift(*hs, int(pc.pos-1))
}

// sift restores the heap order around entry i, whose key changed.
func (c *candidates) sift(hs []candHead, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !hs[i].before(&hs[parent]) {
			break
		}
		c.swap(hs, i, parent)
		i = parent
	}
	for {
		least := i
		for k := 2*i + 1; k <= 2*i+2 && k < len(hs); k++ {
			if hs[k].before(&hs[least]) {
				least = k
			}
		}
		if least == i {
			return
		}
		c.swap(hs, i, least)
		i = least
	}
}

func (c *candidates) swap(hs []candHead, i, j int) {
	hs[i], hs[j] = hs[j], hs[i]
	c.phases[hs[i].p].pos = int32(i + 1)
	c.phases[hs[j].p].pos = int32(j + 1)
}
