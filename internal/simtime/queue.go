package simtime

// Queue is a deterministic future-event list: a priority queue of payloads
// ordered by firing time, with FIFO ordering among events that share the same
// instant. The zero value is an empty queue ready to use.
//
// Determinism matters because the cluster simulators schedule many events at
// identical instants; heap ties broken by pointer order or map iteration
// would make runs irreproducible.
//
// The heap is implemented by hand rather than over container/heap: the
// standard interface boxes every pushed event into an `any`, which costs one
// allocation per event.
//
// Beside the heap sit FIFO lanes for events that arrive already in firing
// order: PushLane feeds one lane per caller-chosen owner (in a simulated
// cluster, the completions of one job phase, which under exact durations all
// take the same time). Each lane is a ring sorted by (at, seq), because a
// lane only accepts an event whose instant is not below its tail's and seq
// stamps only grow; an event that would break a lane's order goes to the
// heap instead. The lanes are merged through a small heap of their heads, and
// Pop, Peek and DrainInstant take the smaller of the heap top and the
// earliest lane head. Every event carries the stamp Push would have given it
// whichever lane holds it, so the pop order is a merge of (at, seq)-sorted
// lists and does not depend on where an event went.
type Queue[T any] struct {
	h []event[T]
	// lanes holds every lane ever opened; a drained lane's index goes
	// to spare and its ring keeps its capacity for the next owner. owned maps
	// an owner to 1 + the index of its lane, 0 while it has none.
	lanes []lane[T]
	spare []int32
	owned []int32
	// heads is a heapArity-ary heap over the open lanes, each entry carrying
	// its lane head's (at, seq) inline so that a comparison never reaches
	// into a ring. A lane is open exactly while it is non-empty.
	heads []laneHead
	// laneLen counts the events held in all lanes.
	laneLen int
	// seq is a monotonically increasing stamp assigned at Push time so that
	// events pushed earlier pop earlier among equal firing times. Normal
	// pushes live in the upper seq band (normalBand set); PushFront draws
	// from fseq in the lower band, so front events precede every normal
	// event sharing their instant while staying FIFO among themselves.
	seq  uint64
	fseq uint64
}

// lane is one FIFO ring: n events starting at head, wrapping at len(ring),
// which is zero or a power of two, and the owner it serves.
type lane[T any] struct {
	ring    []event[T]
	head, n int
	owner   int
}

func (l *lane[T]) tail() *event[T] { return &l.ring[(l.head+l.n-1)&(len(l.ring)-1)] }

func (l *lane[T]) push(e event[T]) {
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = e
	l.n++
}

func (l *lane[T]) pop() {
	l.ring[l.head] = event[T]{} // release payload for GC
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
}

// grow doubles the ring, unwrapping it to start at index 0.
func (l *lane[T]) grow() {
	grown := make([]event[T], max(2*len(l.ring), 16))
	n := copy(grown, l.ring[l.head:])
	copy(grown[n:], l.ring[:l.head])
	l.ring, l.head = grown, 0
}

// laneHead is the heads entry of open lane l.
type laneHead struct {
	at  Time
	seq uint64
	l   int32
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

// PushLane schedules payload v to fire at instant at, exactly as Push does —
// same seq stamp, same position in the pop order — but keeps the event in
// owner's lane when at is not below the instant of the last event that lane
// accepted, which makes both the push and the later pop cheap. An event that
// would break the lane's order goes to the heap instead; onLane reports which
// of the two happened. owner is a small non-negative integer the caller picks
// (the queue keeps a table indexed by it). An owner's lane exists only while
// it holds events; a drained lane returns to a pool for the next owner to
// open. Lanes pay off for sources that each fire in order but interleave
// with one another: the heap then holds one head per source instead of every
// event. Any mix of Push and PushLane pops identically.
func (q *Queue[T]) PushLane(owner int, at Time, v T) (onLane bool) {
	if owner >= len(q.owned) {
		q.owned = append(q.owned, make([]int32, owner+1-len(q.owned))...)
	}
	li := int(q.owned[owner]) - 1
	if li >= 0 && at < q.lanes[li].tail().at {
		q.Push(at, v)
		return false
	}
	q.seq++
	e := event[T]{at: at, seq: normalBand | q.seq, payload: v}
	q.laneLen++
	if li >= 0 {
		q.lanes[li].push(e)
		return true
	}
	li = q.openLane(owner)
	q.lanes[li].push(e)
	q.heads = append(q.heads, laneHead{at: at, seq: e.seq, l: int32(li)})
	q.upHeads(len(q.heads) - 1)
	return true
}

// openLane hands owner an empty lane, a spare one when there is one.
func (q *Queue[T]) openLane(owner int) int {
	var li int
	if n := len(q.spare); n > 0 {
		li = int(q.spare[n-1])
		q.spare = q.spare[:n-1]
	} else {
		li = len(q.lanes)
		q.lanes = append(q.lanes, lane[T]{})
	}
	q.lanes[li].owner = owner
	q.owned[owner] = int32(li + 1)
	return li
}

// first locates the earliest pending event under (at, seq) and reports
// whether it heads a lane. Only valid on a non-empty queue. It hands out a
// pointer so that callers copy out just the fields they want: moving whole
// events by value cost a fifth of the pop time on few-entry heaps.
func (q *Queue[T]) first() (e *event[T], onLane bool) {
	if len(q.h) > 0 {
		e = &q.h[0]
	}
	if len(q.heads) == 0 {
		return e, false
	}
	if hd := &q.heads[0]; e == nil || hd.at < e.at || (hd.at == e.at && hd.seq < e.seq) {
		l := &q.lanes[hd.l]
		return &l.ring[l.head], true
	}
	return e, false
}

// drop removes the event first located.
func (q *Queue[T]) drop(onLane bool) {
	if onLane {
		q.dropLane()
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

// dropLane removes the head of the lane at heads[0]. A lane left
// holding events re-keys its entry; a drained one closes: it leaves heads,
// its owner's entry clears, and it goes to spare.
func (q *Queue[T]) dropLane() {
	hd := &q.heads[0]
	l := &q.lanes[hd.l]
	l.pop()
	q.laneLen--
	if l.n > 0 {
		next := &l.ring[l.head]
		hd.at, hd.seq = next.at, next.seq
		q.downHeads(0)
		return
	}
	l.head = 0
	q.owned[l.owner] = 0
	q.spare = append(q.spare, hd.l)
	last := len(q.heads) - 1
	q.heads[0] = q.heads[last]
	q.heads = q.heads[:last]
	q.downHeads(0)
}

// Pop removes and returns the earliest event. ok is false when the queue is
// empty, in which case at and v are zero values.
func (q *Queue[T]) Pop() (at Time, v T, ok bool) {
	if q.Len() == 0 {
		return 0, v, false
	}
	e, onLane := q.first()
	at, v = e.at, e.payload
	q.drop(onLane)
	return at, v, true
}

// Peek returns the firing time of the earliest event without removing it.
// ok is false when the queue is empty.
func (q *Queue[T]) Peek() (at Time, ok bool) {
	if len(q.h) > 0 {
		at, ok = q.h[0].at, true
	}
	// Only the instant is asked for, so a tie between the lanes and the heap
	// needs no seq comparison.
	if len(q.heads) > 0 && (!ok || q.heads[0].at < at) {
		at, ok = q.heads[0].at, true
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
		e, onLane := q.first()
		if n > 0 && e.at != at {
			break
		}
		at = e.at
		*out = append(*out, e.payload)
		q.drop(onLane)
		n++
	}
	return at, n
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.h) + q.laneLen }

// Reset empties the queue while keeping its backing storage, so a pooled
// simulator can reuse one queue across runs without re-allocating. Payloads
// still queued are zeroed to release anything they reference, and every
// lane closes.
func (q *Queue[T]) Reset() {
	for i := range q.h {
		q.h[i] = event[T]{}
	}
	q.h = q.h[:0]
	for len(q.heads) > 0 {
		q.dropLane()
	}
	q.laneLen = 0
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

func (q *Queue[T]) headLess(i, j int) bool {
	a, b := &q.heads[i], &q.heads[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *Queue[T]) upHeads(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !q.headLess(i, parent) {
			break
		}
		q.heads[i], q.heads[parent] = q.heads[parent], q.heads[i]
		i = parent
	}
}

func (q *Queue[T]) downHeads(i int) {
	n := len(q.heads)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		smallest := i
		for c := first; c < min(first+heapArity, n); c++ {
			if q.headLess(c, smallest) {
				smallest = c
			}
		}
		if smallest == i {
			return
		}
		q.heads[i], q.heads[smallest] = q.heads[smallest], q.heads[i]
		i = smallest
	}
}

type event[T any] struct {
	at      Time
	seq     uint64
	payload T
}
