package simtime

import "math/bits"

// Queue is a deterministic future-event list: a priority queue of payloads
// ordered by firing time, with FIFO ordering among events that share the same
// instant. The zero value is an empty queue ready to use.
//
// Determinism matters because the cluster simulators schedule many events at
// identical instants; ties broken by pointer order or map iteration would
// make runs irreproducible.
//
// Push and PushFront file events in a radix queue (a monotone bucket queue)
// kept against last, the instant most recently popped from it: bucket 0
// holds the events at last itself, and bucket i > 0 those whose instant
// first differs from last in bit i-1. Every event of a bucket is earlier
// than every event of a higher one, so the earliest event is in the lowest
// non-empty bucket. A push is an append. Popping from a bucket other than 0
// first re-files that bucket against its earliest instant, which becomes
// last: each of its events moves to a lower bucket, and those at the new
// last land in bucket 0, to be popped from its front. An event moves at
// most once per bit of its distance from last, and in practice a handful of
// times, where a heap would sift it through log n levels on the way in and
// again on the way out. Each bucket keeps the events of one instant in
// (at, seq) order: pushes append in stamp order, a re-file moves an
// instant's events together and in order, and PushFront inserts its event
// where its band puts it. A push below last, which the simulators never
// make (they push at or after the instant they are processing), re-files
// every bucket against the new instant once.
//
// Beside the buckets sit FIFO lanes for events that arrive already in firing
// order: PushLane feeds one lane per caller-chosen owner (in a simulated
// cluster, the completions of one job phase, which under exact durations all
// take the same time). Each lane is a ring sorted by (at, seq), because a
// lane only accepts an event whose instant is not below its tail's and seq
// stamps only grow; an event that would break a lane's order goes to the
// buckets instead. The lanes are merged through a small heap of their heads,
// and Pop, Peek and DrainInstant take the smaller of the buckets' earliest
// event and the earliest lane head. Every event carries the stamp Push would
// have given it whichever lane holds it, so the pop order is a merge of
// (at, seq)-sorted lists and does not depend on where an event went.
type Queue[T any] struct {
	// buckets[i] holds the events filed under bucket i. Bucket 0 pops from
	// head0; every other bucket is only appended to, and emptied whole by a
	// re-file. Nothing is zeroed on the way: a bucket's spare capacity may
	// hold copies of events it has passed on or popped until they are
	// overwritten or Reset zeroes them, which bounds what a queue can pin by
	// its high-water mark.
	buckets [numBuckets][]event[T]
	head0   int
	// mins[i] is the earliest instant in bucket i > 0, valid while occ has
	// bit i-1 set, which it has exactly while the bucket is non-empty. The
	// earliest event there is the first of that instant in the bucket.
	mins [numBuckets]Time
	occ  uint64
	// n counts the events in the buckets, and last is the instant they are
	// filed against: no event in them is earlier.
	n    int
	last Time
	// spill is the scratch space of a below-last re-file.
	spill []event[T]
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

// numBuckets is one bucket for last itself and one per bit of a Time.
const numBuckets = 65

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
	if at < q.last {
		q.lower(at)
	}
	q.file(event[T]{at: at, seq: normalBand | q.seq, payload: v})
}

// PushFront schedules payload v to fire at instant at, ahead of every
// already- or later-Pushed event at the same instant (repeated PushFronts at
// one instant keep their own FIFO order). The federation layer uses it to
// inject workflow arrivals into a running simulator with the same
// same-instant ordering a pre-run Submit would have produced: pre-run
// arrivals carry the lowest seq stamps of their instant, so a live-submitted
// arrival must also sort before the completions and heartbeats already
// queued there.
//
// The front event goes ahead of the normal events of its instant already in
// its bucket, and behind its instant's earlier front events, which precede
// those. Only this push pays a scan of the bucket.
func (q *Queue[T]) PushFront(at Time, v T) {
	q.fseq++
	if at < q.last {
		q.lower(at)
	}
	e := event[T]{at: at, seq: q.fseq, payload: v}
	i := q.bucketOf(at)
	from := 0
	if i == 0 {
		from = q.head0
	}
	b := q.buckets[i]
	for p := from; p < len(b); p++ {
		if b[p].at == at && b[p].seq&normalBand != 0 {
			q.file(e)
			b = q.buckets[i]
			copy(b[p+1:], b[p:len(b)-1])
			b[p] = e
			return
		}
	}
	q.file(e)
}

// bucketOf returns the bucket an event at instant at is filed in, at not
// being below last.
func (q *Queue[T]) bucketOf(at Time) int {
	return bits.Len64(uint64(at ^ q.last))
}

// file appends e, not below last, to its bucket and keeps the bucket's
// earliest instant.
func (q *Queue[T]) file(e event[T]) {
	q.n++
	i := q.bucketOf(e.at)
	b := q.buckets[i]
	if i > 0 {
		if len(b) == 0 {
			q.occ |= 1 << (i - 1)
			q.mins[i] = e.at
		} else if e.at < q.mins[i] {
			q.mins[i] = e.at
		}
	}
	q.buckets[i] = append(b, e)
}

// lower files the buckets against at, an instant below last, re-filing
// every event they hold.
func (q *Queue[T]) lower(at Time) {
	if q.n == 0 {
		q.last = at
		return
	}
	spill := append(q.spill[:0], q.buckets[0][q.head0:]...)
	q.empty(0)
	for occ := q.occ; occ != 0; occ &= occ - 1 {
		i := bits.TrailingZeros64(occ) + 1
		spill = append(spill, q.buckets[i]...)
		q.empty(i)
	}
	q.occ, q.n = 0, 0
	q.last = at
	for i := range spill {
		q.file(spill[i])
	}
	q.spill = spill[:0]
}

// refile re-files the lowest non-empty bucket against its earliest instant
// when bucket 0 is empty, so that bucket 0 holds the earliest events. Only
// valid while the buckets hold events.
func (q *Queue[T]) refile() {
	if q.head0 < len(q.buckets[0]) {
		return
	}
	i := bits.TrailingZeros64(q.occ) + 1
	q.occ &^= 1 << (i - 1)
	last := q.mins[i]
	q.last = last
	src := q.buckets[i]
	// file, by hand and without the count: this loop is where the buckets
	// spend their time.
	for k := range src {
		e := &src[k]
		j := bits.Len64(uint64(e.at ^ last))
		b := q.buckets[j]
		if len(b) == 0 {
			q.occ |= 1 << uint(j-1) // j = 0: a shift past 63, which sets nothing
			q.mins[j] = e.at
		} else if e.at < q.mins[j] {
			q.mins[j] = e.at
		}
		q.buckets[j] = append(b, *e)
	}
	q.empty(i)
}

// empty truncates bucket i.
func (q *Queue[T]) empty(i int) {
	q.buckets[i] = q.buckets[i][:0]
	if i == 0 {
		q.head0 = 0
	}
}

// bucketMin returns the earliest instant in the buckets without re-filing
// any; ok is false when they are empty.
func (q *Queue[T]) bucketMin() (at Time, ok bool) {
	if q.head0 < len(q.buckets[0]) {
		return q.last, true
	}
	if q.occ == 0 {
		return 0, false
	}
	return q.mins[bits.TrailingZeros64(q.occ)+1], true
}

// pop0 removes the front of bucket 0.
func (q *Queue[T]) pop0() {
	b := q.buckets[0]
	q.head0++
	q.n--
	if q.head0 == len(b) {
		q.buckets[0] = b[:0]
		q.head0 = 0
	}
}

// PushLane schedules payload v to fire at instant at, exactly as Push does —
// same seq stamp, same position in the pop order — but keeps the event in
// owner's lane when at is not below the instant of the last event that lane
// accepted, which makes both the push and the later pop cheap. An event that
// would break the lane's order goes to the buckets instead; onLane reports
// which of the two happened. owner is a small non-negative integer the caller
// picks (the queue keeps a table indexed by it). An owner's lane exists only
// while it holds events; a drained lane returns to a pool for the next owner
// to open. Lanes pay off for sources that each fire in order but interleave
// with one another: an event then costs a ring append and pop, and the heads'
// heap holds one entry per source. Any mix of Push and PushLane pops
// identically.
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
// whether it heads a lane. Only valid on a non-empty queue. When the
// buckets' earliest instant is the earliest pending one, it is about to pop,
// so its bucket is re-filed into bucket 0 before the lanes' head and bucket
// 0's front compare stamps. It hands out a pointer so that callers copy out
// just the fields they want.
func (q *Queue[T]) first() (e *event[T], onLane bool) {
	at, ok := q.bucketMin()
	if ok {
		if len(q.heads) == 0 || at <= q.heads[0].at {
			q.refile()
			e = &q.buckets[0][q.head0]
			if len(q.heads) == 0 || at < q.heads[0].at || e.seq < q.heads[0].seq {
				return e, false
			}
		}
	}
	l := &q.lanes[q.heads[0].l]
	return &l.ring[l.head], true
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
	if onLane {
		q.dropLane()
	} else {
		q.pop0()
	}
	return at, v, true
}

// Peek returns the firing time of the earliest event without removing it.
// ok is false when the queue is empty. It re-files nothing: a bucket's
// minimum is kept as events arrive.
func (q *Queue[T]) Peek() (at Time, ok bool) {
	at, ok = q.bucketMin()
	// Only the instant is asked for, so a tie between the lanes and the
	// buckets needs no seq comparison.
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
// The buckets' events at the instant are re-filed into bucket 0 at most once
// and taken from its front; with no lane event there, the whole bucket goes
// in one copy. The instant is read before anything is re-filed, so last
// never passes it.
func (q *Queue[T]) DrainInstant(out *[]T) (at Time, n int) {
	at, ok := q.Peek()
	if !ok {
		return 0, 0
	}
	if m, ok := q.bucketMin(); ok && m == at {
		q.refile()
	}
	if len(q.heads) == 0 || q.heads[0].at != at {
		b := q.buckets[0][q.head0:]
		for i := range b {
			*out = append(*out, b[i].payload)
		}
		q.n -= len(b)
		q.empty(0)
		return at, len(b)
	}
	// Bucket 0 holds events at this instant exactly while last is it.
	bucketed := q.last == at
	for {
		var e *event[T] // the front of bucket 0, when at this instant
		if bucketed && q.head0 < len(q.buckets[0]) {
			e = &q.buckets[0][q.head0]
		}
		if hd := q.heads; len(hd) > 0 && hd[0].at == at && (e == nil || hd[0].seq < e.seq) {
			l := &q.lanes[hd[0].l]
			*out = append(*out, l.ring[l.head].payload)
			q.dropLane()
		} else if e != nil {
			*out = append(*out, e.payload)
			q.pop0()
		} else {
			return at, n
		}
		n++
	}
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return q.n + q.laneLen }

// Reset empties the queue while keeping its backing storage, so a pooled
// simulator can reuse one queue across runs without re-allocating. The
// buckets' storage is zeroed whole, payloads still queued and copies left
// behind alike, to release anything they reference, and every lane closes.
func (q *Queue[T]) Reset() {
	for i := range q.buckets {
		clear(q.buckets[i][:cap(q.buckets[i])])
		q.empty(i)
	}
	clear(q.spill[:cap(q.spill)])
	q.occ, q.n, q.last = 0, 0, 0
	for len(q.heads) > 0 {
		q.dropLane()
	}
	q.laneLen = 0
	q.seq = 0
	q.fseq = 0
}

// heapArity is the fan-out of the implicit d-ary heap of lane heads. Four
// children halve the sift-down depth of the binary layout, trading cheap
// extra comparisons (the children sit adjacent in one or two cache lines)
// for dependent loads. The (at, seq) order is total, so pop order is
// identical at any arity.
const heapArity = 4

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
