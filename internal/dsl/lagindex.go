package dsl

import "math/bits"

// lagIndex is the bucketed priority index that replaces the priority-side
// skip list of the Double Skip List. Priorities (lags) are small dense
// integers that change by ±1 on Scheduled/Unscheduled (or by a bounded ppm
// step in normalized mode), so instead of a delete+reinsert pair in an
// ordered set, each priority value owns a bucket holding an intrusive
// doubly-linked list of entries in ascending ID order, and repositioning an
// entry is an O(1)-amortized pointer move between adjacent buckets.
//
// Two bands keep the overdue demotion exact without materializing the
// overdueBias offset: band 0 holds normal entries keyed by their lag, band 1
// holds demoted-overdue entries keyed by prio − overdueBias (their remaining
// lag). Iterating band 0 then band 1, each by descending key, reproduces the
// exact (decreasing priority, ascending ID) order of the replaced skip list,
// because every overdue priority sorts below every achievable one.
//
// The index is partitioned into four classes by the entries' startable mask
// (Queue.SetStartable), each class a complete two-band index of its own. An
// entry is filed in exactly one class, so a lag change is still one bucket
// move and a mask flip is one more. Every class lists its members in the
// global order, so the first entry of the whole index is the first among the
// four class heads, and the first entry startable on slot type st — where a
// walk from the head skipping entries without bit st would stop — is the
// first among the heads of the two classes whose mask has the bit. Both are
// O(1) however many entries the walk would have passed.
//
// Buckets live in 256-slot pages allocated lazily (normalized-mode keys span
// ±10^6 ppm; a dense array would be wasteful), with per-page occupancy
// bitmaps so the max-key cursor skips empty runs a word at a time.
// Invariants:
//
//   - an entry is in exactly one bucket of exactly one class, recorded by
//     its bktMask/bktBand/bktKey fields; its bktPrev/bktNext links are owned
//     by that bucket
//   - a bucket's list is strictly ascending by ID; finger points at the most
//     recently inserted member (or is nil when empty) and is the start point
//     for interior position searches
//   - pg.occ bit set ⇔ bucket non-empty; pg.count = set bits; band.count =
//     entries in band; band.top = highest occupied key, valid iff count > 0
type lagIndex struct {
	// classes[m] holds the entries whose startable mask is m.
	classes [4][2]lagBand
	// moves counts bucket-to-bucket repositionings since the last
	// takeMoves, feeding woha_queue_bucket_moves_total.
	moves int
}

const (
	lagPageBits = 8
	lagPageSize = 1 << lagPageBits
	lagSlotMask = lagPageSize - 1
)

type lagBand struct {
	// pages[i] covers keys [ (page0+i)<<lagPageBits, +256 ); nil until a
	// key in its range is first touched.
	pages []*lagPage
	page0 int
	count int
	top   int
}

type lagPage struct {
	count   int
	occ     [lagPageSize / 64]uint64
	buckets [lagPageSize]lagBucket
}

type lagBucket struct {
	head, tail, finger *Entry
}

// lagPos maps an entry's current priority to its band and bucket key.
func lagPos(e *Entry) (band, key int) {
	if e.overdue {
		return 1, e.prio - overdueBias
	}
	return 0, e.prio
}

var _ prioIndex = (*lagIndex)(nil)

func (ix *lagIndex) insert(e *Entry) {
	band, key := lagPos(e)
	b := &ix.classes[e.startable][band]
	pg := b.page(key)
	slot := key & lagSlotMask
	bkt := &pg.buckets[slot]
	if bkt.head == nil {
		pg.occ[slot>>6] |= 1 << (uint(slot) & 63)
		pg.count++
		if b.count == 0 || key > b.top {
			b.top = key
		}
	}
	bkt.insert(e)
	e.bktMask, e.bktBand, e.bktKey = e.startable, int8(band), key
	b.count++
}

func (ix *lagIndex) remove(e *Entry) {
	b := &ix.classes[e.bktMask][e.bktBand]
	key := e.bktKey
	pg := b.pages[(key>>lagPageBits)-b.page0]
	slot := key & lagSlotMask
	bkt := &pg.buckets[slot]
	if bkt.finger == e {
		if e.bktPrev != nil {
			bkt.finger = e.bktPrev
		} else {
			bkt.finger = e.bktNext
		}
	}
	if e.bktPrev != nil {
		e.bktPrev.bktNext = e.bktNext
	} else {
		bkt.head = e.bktNext
	}
	if e.bktNext != nil {
		e.bktNext.bktPrev = e.bktPrev
	} else {
		bkt.tail = e.bktPrev
	}
	e.bktPrev, e.bktNext = nil, nil
	b.count--
	if bkt.head == nil {
		bkt.finger = nil
		pg.occ[slot>>6] &^= 1 << (uint(slot) & 63)
		pg.count--
		if key == b.top && b.count > 0 {
			b.top = b.prevOccupied(key - 1)
		}
	}
}

// update repositions e after a priority recomputation or a startable-mask
// flip; entries whose class and bucket did not change are left untouched
// (their in-bucket position depends only on the ID).
func (ix *lagIndex) update(e *Entry) {
	band, key := lagPos(e)
	if int(e.bktBand) == band && e.bktKey == key && e.bktMask == e.startable {
		return
	}
	ix.remove(e)
	ix.insert(e)
	ix.moves++
}

// min returns the highest-priority entry (max lag, ties by ascending ID), or
// nil when empty.
func (ix *lagIndex) min() *Entry {
	return first(first(ix.head(0), ix.head(1)), first(ix.head(2), ix.head(3)))
}

// bestStartable returns the highest-priority entry startable on slot type st.
func (ix *lagIndex) bestStartable(st int) *Entry {
	return first(ix.head(1<<st), ix.head(3))
}

// head returns the highest-priority entry of one class: the head of the top
// bucket of its first non-empty band.
func (ix *lagIndex) head(mask int) *Entry {
	for i := range ix.classes[mask] {
		b := &ix.classes[mask][i]
		if b.count > 0 {
			pg := b.pages[(b.top>>lagPageBits)-b.page0]
			return pg.buckets[b.top&lagSlotMask].head
		}
	}
	return nil
}

// first returns whichever of two class heads precedes the other in the
// queue's order; nil stands for an empty class.
func first(a, b *Entry) *Entry {
	if b == nil || (a != nil && a.before(b)) {
		return a
	}
	return b
}

func (ix *lagIndex) takeMoves() int {
	m := ix.moves
	ix.moves = 0
	return m
}

// insert links e into the bucket keeping ascending ID order. The fast paths
// — empty bucket, append past the tail, prepend before the head — cover the
// queue's access patterns (arrival IDs ascend; a popped head re-enters its
// neighbour bucket at the extreme); interior inserts walk from the finger.
func (bkt *lagBucket) insert(e *Entry) {
	e.bktPrev, e.bktNext = nil, nil
	if bkt.head == nil {
		bkt.head, bkt.tail, bkt.finger = e, e, e
		return
	}
	if e.ID > bkt.tail.ID {
		e.bktPrev = bkt.tail
		bkt.tail.bktNext = e
		bkt.tail = e
		bkt.finger = e
		return
	}
	if e.ID < bkt.head.ID {
		e.bktNext = bkt.head
		bkt.head.bktPrev = e
		bkt.head = e
		bkt.finger = e
		return
	}
	// Interior insert: head.ID < e.ID < tail.ID, so both walks terminate on
	// a non-nil neighbour.
	at := bkt.finger
	if at == nil {
		at = bkt.tail
	}
	if e.ID > at.ID {
		for at.bktNext != nil && at.bktNext.ID < e.ID {
			at = at.bktNext
		}
		e.bktPrev, e.bktNext = at, at.bktNext
		at.bktNext.bktPrev = e
		at.bktNext = e
	} else {
		for at.bktPrev != nil && at.bktPrev.ID > e.ID {
			at = at.bktPrev
		}
		e.bktNext, e.bktPrev = at, at.bktPrev
		at.bktPrev.bktNext = e
		at.bktPrev = e
	}
	bkt.finger = e
}

// page returns the page covering key, growing the page table and allocating
// the page on first touch. Steady-state operation (keys moving within the
// already-touched range) never allocates.
func (b *lagBand) page(key int) *lagPage {
	p := key >> lagPageBits
	switch {
	case len(b.pages) == 0:
		b.page0 = p
		b.pages = append(b.pages, nil)
	case p < b.page0:
		grow := b.page0 - p
		pages := make([]*lagPage, grow+len(b.pages))
		copy(pages[grow:], b.pages)
		b.pages = pages
		b.page0 = p
	default:
		for p-b.page0 >= len(b.pages) {
			b.pages = append(b.pages, nil)
		}
	}
	pg := b.pages[p-b.page0]
	if pg == nil {
		pg = &lagPage{}
		b.pages[p-b.page0] = pg
	}
	return pg
}

// prevOccupied returns the highest occupied key at or below from. The band
// must hold at least one entry at or below from; callers guarantee this via
// the band count.
func (b *lagBand) prevOccupied(from int) int {
	pi := (from >> lagPageBits) - b.page0
	slot := from & lagSlotMask
	if pi >= len(b.pages) {
		pi, slot = len(b.pages)-1, lagSlotMask
	}
	for ; pi >= 0; pi-- {
		pg := b.pages[pi]
		if pg == nil || pg.count == 0 {
			slot = lagSlotMask
			continue
		}
		w := slot >> 6
		word := pg.occ[w] & ((uint64(2) << (uint(slot) & 63)) - 1)
		for {
			if word != 0 {
				msb := 63 - bits.LeadingZeros64(word)
				return (b.page0+pi)<<lagPageBits | w<<6 | msb
			}
			w--
			if w < 0 {
				break
			}
			word = pg.occ[w]
		}
		slot = lagSlotMask
	}
	panic("dsl: lag band count positive but no occupied bucket found")
}
