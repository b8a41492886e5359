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

// Peek returns the firing time of the earliest event without removing it.
// ok is false when the queue is empty. It re-files nothing: a bucket's
// minimum is kept as events arrive.
func (q *Queue[T]) Peek() (at Time, ok bool) {
	if q.head0 < len(q.buckets[0]) {
		return q.last, true
	}
	if q.occ == 0 {
		return 0, false
	}
	return q.mins[bits.TrailingZeros64(q.occ)+1], true
}

// Pop removes and returns the earliest event. ok is false when the queue is
// empty, in which case at and v are zero values.
func (q *Queue[T]) Pop() (at Time, v T, ok bool) {
	if q.n == 0 {
		return 0, v, false
	}
	q.refile()
	b := q.buckets[0]
	at, v = b[q.head0].at, b[q.head0].payload
	q.head0++
	q.n--
	if q.head0 == len(b) {
		q.empty(0)
	}
	return at, v, true
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
// The instant's events are re-filed into bucket 0 at most once, and the
// whole bucket goes out in one copy.
func (q *Queue[T]) DrainInstant(out *[]T) (at Time, n int) {
	if q.n == 0 {
		return 0, 0
	}
	q.refile()
	b := q.buckets[0][q.head0:]
	for i := range b {
		*out = append(*out, b[i].payload)
	}
	q.n -= len(b)
	q.empty(0)
	return q.last, len(b)
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return q.n }

// Reset empties the queue while keeping its backing storage, so a pooled
// simulator can reuse one queue across runs without re-allocating. The
// buckets' storage is zeroed whole, payloads still queued and copies left
// behind alike, to release anything they reference.
func (q *Queue[T]) Reset() {
	for i := range q.buckets {
		clear(q.buckets[i][:cap(q.buckets[i])])
		q.empty(i)
	}
	clear(q.spill[:cap(q.spill)])
	q.occ, q.n, q.last = 0, 0, 0
	q.seq = 0
	q.fseq = 0
}

type event[T any] struct {
	at      Time
	seq     uint64
	payload T
}
