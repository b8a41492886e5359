package simtime

// Queue is a deterministic future-event list: a priority queue of payloads
// ordered by firing time, with FIFO ordering among events that share the same
// instant. The zero value is an empty queue ready to use.
//
// Determinism matters because both the plan generator (Algorithm 1 of the
// WOHA paper) and the cluster simulator schedule many events at identical
// instants; heap ties broken by pointer order or map iteration would make
// runs irreproducible.
//
// The heap is implemented by hand rather than over container/heap: the
// standard interface boxes every pushed event into an `any`, which costs one
// allocation per event — the dominant cost of an Algorithm 1 probe, run
// O(log slots) times per admitted workflow.
//
// Beside the heap sits a second, monotone lane (PushOrdered): a ring-buffer
// FIFO for events that arrive already in firing order, such as a simulated
// node's periodic heartbeats. Every event carries the same (at, seq) stamp
// whichever lane holds it, and Pop, Peek and DrainInstant take the smaller of
// the lane head and the heap top under that one total order, so the pop
// sequence does not depend on which lane an event went to.
type Queue[T any] struct {
	h []event[T]
	// lane is the FIFO ring: laneLen events starting at laneHead, wrapping at
	// len(lane), which is zero or a power of two. It is sorted by (at, seq)
	// because PushOrdered only appends an event whose instant is not below
	// the current tail's, and seq stamps only grow.
	lane     []event[T]
	laneHead int
	laneLen  int
	// seq is a monotonically increasing stamp assigned at Push time so that
	// events pushed earlier pop earlier among equal firing times. Normal
	// pushes live in the upper seq band (normalBand set); PushFront draws
	// from fseq in the lower band, so front events precede every normal
	// event sharing their instant while staying FIFO among themselves.
	seq  uint64
	fseq uint64
}

// normalBand tags the seq stamps of ordinary pushes. Every normal stamp is
// larger than every front stamp, so among events at one instant the front
// band drains first; within each band FIFO order is preserved.
const normalBand = uint64(1) << 63

// Push schedules payload v to fire at instant at.
func (q *Queue[T]) Push(at Time, v T) {
	q.seq++
	q.h = append(q.h, event[T]{at: at, seq: normalBand | q.seq, payload: v})
	q.up(len(q.h) - 1)
}

// PushFront schedules payload v to fire at instant at, ahead of every
// already- or later-Pushed event at the same instant (repeated PushFronts at
// one instant keep their own FIFO order). The federation layer uses it to
// inject workflow arrivals into a running simulator with the same
// same-instant ordering a pre-run Submit would have produced: pre-run
// arrivals carry the lowest seq stamps of their instant, so a live-submitted
// arrival must also sort before the completions and heartbeats already
// queued there.
func (q *Queue[T]) PushFront(at Time, v T) {
	q.fseq++
	q.h = append(q.h, event[T]{at: at, seq: q.fseq, payload: v})
	q.up(len(q.h) - 1)
}

// PushOrdered schedules payload v to fire at instant at, exactly as Push
// does — same seq stamp, same position in the pop order — but keeps the event
// in the FIFO lane when at is not below the instant of the last event the
// lane accepted, which makes both the push and the later pop O(1). An event
// that would break the lane's order goes to the heap instead; onLane reports
// which of the two happened. Callers whose events mostly arrive in firing
// order (a periodic source re-arming at now + interval) should use it; any
// mix of Push and PushOrdered pops identically.
func (q *Queue[T]) PushOrdered(at Time, v T) (onLane bool) {
	if q.laneLen > 0 && at < q.lane[(q.laneHead+q.laneLen-1)&(len(q.lane)-1)].at {
		q.Push(at, v)
		return false
	}
	if q.laneLen == len(q.lane) {
		q.growLane()
	}
	q.seq++
	q.lane[(q.laneHead+q.laneLen)&(len(q.lane)-1)] = event[T]{at: at, seq: normalBand | q.seq, payload: v}
	q.laneLen++
	return true
}

// growLane doubles the ring, unwrapping it to start at index 0.
func (q *Queue[T]) growLane() {
	grown := make([]event[T], max(2*len(q.lane), 16))
	n := copy(grown, q.lane[q.laneHead:])
	copy(grown[n:], q.lane[:q.laneHead])
	q.lane, q.laneHead = grown, 0
}

// first locates the earliest pending event — the lane's head or the heap's
// top, whichever is smaller under (at, seq) — and reports which lane holds
// it. Only valid on a non-empty queue. It hands out a pointer so that callers
// copy out just the fields they want: moving whole events by value cost the
// plan generator's few-entry heaps a fifth of their pop time.
func (q *Queue[T]) first() (e *event[T], lane bool) {
	if q.laneLen == 0 {
		return &q.h[0], false
	}
	l := &q.lane[q.laneHead]
	if len(q.h) == 0 {
		return l, true
	}
	t := &q.h[0]
	if l.at < t.at || (l.at == t.at && l.seq < t.seq) {
		return l, true
	}
	return t, false
}

// drop removes the event first located in the given lane.
func (q *Queue[T]) drop(lane bool) {
	if lane {
		q.lane[q.laneHead] = event[T]{} // release payload for GC
		q.laneHead = (q.laneHead + 1) & (len(q.lane) - 1)
		q.laneLen--
		return
	}
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = event[T]{} // release payload for GC
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
}

// Pop removes and returns the earliest event. ok is false when the queue is
// empty, in which case at and v are zero values.
func (q *Queue[T]) Pop() (at Time, v T, ok bool) {
	if q.Len() == 0 {
		return 0, v, false
	}
	e, lane := q.first()
	at, v = e.at, e.payload
	q.drop(lane)
	return at, v, true
}

// Peek returns the firing time of the earliest event without removing it.
// ok is false when the queue is empty.
func (q *Queue[T]) Peek() (at Time, ok bool) {
	if len(q.h) > 0 {
		at, ok = q.h[0].at, true
	}
	// Only the instant is asked for, so a tie between the lanes needs no
	// seq comparison.
	if q.laneLen > 0 && (!ok || q.lane[q.laneHead].at < at) {
		at, ok = q.lane[q.laneHead].at, true
	}
	return at, ok
}

// DrainInstant pops every event scheduled at the earliest pending instant,
// appending their payloads to *out in the exact order repeated Pop calls
// would have produced (FIFO among the shared instant), and returns that
// instant with the number of payloads appended. n is 0 when the queue is
// empty. Events pushed while the caller processes the batch — even at the
// same instant — are NOT part of it; they surface on the next call, which is
// precisely when a Pop-per-event loop would have reached them (their seq
// stamps are newer than everything drained here).
//
// Batching exists for the simulators' grid-aligned workloads (heartbeat
// ticks, synchronized wave completions): the heap is popped once per instant
// instead of once per event, so the sift-down traffic for k coincident
// events touches a heap that shrinks k times between time advances.
func (q *Queue[T]) DrainInstant(out *[]T) (at Time, n int) {
	for q.Len() > 0 {
		e, lane := q.first()
		if n > 0 && e.at != at {
			break
		}
		at = e.at
		*out = append(*out, e.payload)
		q.drop(lane)
		n++
	}
	return at, n
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.h) + q.laneLen }

// Reset empties the queue while keeping its backing storage, so a pooled
// simulator can reuse one queue across runs without re-allocating. Payloads
// still queued are zeroed to release anything they reference.
func (q *Queue[T]) Reset() {
	for i := range q.h {
		q.h[i] = event[T]{}
	}
	q.h = q.h[:0]
	for q.laneLen > 0 {
		q.drop(true)
	}
	q.laneHead = 0
	q.seq = 0
	q.fseq = 0
}

func (q *Queue[T]) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

// heapArity is the fan-out of the implicit d-ary heap. Four children halve
// the sift-down depth of the binary layout, trading cheap extra comparisons
// (the children sit adjacent in one or two cache lines) for the dependent
// loads that dominate Pop on deep heaps. The (at, seq) order is total, so
// pop order is identical at any arity.
const heapArity = 4

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.h)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		smallest := i
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if q.less(c, smallest) {
				smallest = c
			}
		}
		if smallest == i {
			return
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
}

type event[T any] struct {
	at      Time
	seq     uint64
	payload T
}
