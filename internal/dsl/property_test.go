package dsl

// Operation-sequence property test and fuzz target: the bucketed-lag-index
// DSL, the set-backed BST backend, and the naive full-recompute
// queue are driven with one interleaved program of adds, removals,
// schedulings, unschedulings and startable-mask flips, and must agree
// decision for decision — same head, same lag, same BestStartable answer for
// either slot type — after every step. Times are adversarial: besides small
// steps, the clock jumps to land exactly on requirement-change boundaries
// and deadlines (and 1ns on either side), the instants where the incremental
// settle and a full recompute are most likely to diverge. A quarter of the
// steps skip the check, so progress changes and flips also land on entries
// whose requirements fired but have not been settled. Runs under -race via
// `make race`.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/simtime"
)

// propMode selects the entry construction the whole run uses (mixing
// normalization modes within one queue is not a supported configuration).
type propMode int

const (
	propPlain propMode = iota
	propDemoteOverdue
	propNormalized
	propModes
)

func (m propMode) String() string {
	switch m {
	case propDemoteOverdue:
		return "demote-overdue"
	case propNormalized:
		return "normalized"
	default:
		return "plain"
	}
}

func (m propMode) entry(id int, deadline simtime.Time, reqs []plan.Req) *Entry {
	var e *Entry
	if m == propDemoteOverdue {
		e = NewEntryDemoteOverdue(id, deadline, reqs)
	} else {
		e = NewEntry(id, deadline, reqs)
	}
	if m == propNormalized {
		e.Normalized()
	}
	return e
}

// opsCoverage counts the corners a program reached, so the property test can
// require that its random programs do reach them.
type opsCoverage struct {
	flips, headFlips, loneFlips, maskedRemoves, overdueFlips int
}

// queueOpsStep is the number of program bytes one step consumes: opcode,
// clock byte, two operands.
const queueOpsStep = 4

// checkQueueOps interprets ops as a program over the three indexed backends
// and the naive reference side by side and fails on the first disagreement.
// Each step advances the clock (clock byte below 128: onto a recorded
// boundary, give or take 1ns, if that is ahead; otherwise up to 20s on), then
// runs one operation chosen by the opcode:
//
//	add        deadline and requirement list derived from the operands
//	remove     a present workflow
//	scheduled  a present workflow, or the current head
//	unscheduled (never below zero progress)
//	flip       SetStartable(map or reduce, on or off) on a present workflow,
//	           or on the current head — the top bucket of its band, and
//	           often that bucket's only member
//
// and, unless the opcode is in the top quarter of the byte range, compares
// Best, BestStartable(map), BestStartable(reduce) and Len on every backend
// with the reference. At the end the queue is drained head by head, which
// checks the whole remaining order.
func checkQueueOps(t *testing.T, mode propMode, ops []byte) opsCoverage {
	t.Helper()
	list := New(1)
	impls := []struct {
		name string
		q    Queue
	}{
		{"DSL", list},
		{"BST", NewBST()},
	}
	ref := NewNaive()
	all := []Queue{list, impls[1].q, ref}

	var cov opsCoverage
	// boundaries accumulates every entry's requirement-change times and
	// deadline, the instants the clock deliberately jumps to.
	var boundaries []simtime.Time
	// sched tracks net Scheduled calls per live id so Unscheduled never
	// drives true progress negative.
	sched := map[int]int{}
	present := []int{}
	nextID := 0
	now := simtime.Epoch

	check := func(step int) {
		t.Helper()
		for st := -1; st <= 1; st++ {
			query := func(q Queue) (*Entry, bool) {
				if st < 0 {
					return q.Best(now)
				}
				return q.BestStartable(now, st)
			}
			want, wantOK := query(ref)
			for _, im := range impls {
				got, ok := query(im.q)
				if ok != wantOK {
					t.Fatalf("step %d @%v: %s best(%d) ok=%v, naive ok=%v", step, now, im.name, st, ok, wantOK)
				}
				if ok && (got.ID != want.ID || got.Lag() != want.Lag() || got.startable != want.startable) {
					t.Fatalf("step %d @%v: %s best(%d) = wf %d (lag %d, mask %b), naive wf %d (lag %d, mask %b)",
						step, now, im.name, st, got.ID, got.Lag(), got.startable, want.ID, want.Lag(), want.startable)
				}
			}
		}
		for _, im := range impls {
			if im.q.Len() != ref.Len() {
				t.Fatalf("step %d: %s.Len = %d, naive %d", step, im.name, im.q.Len(), ref.Len())
			}
		}
		checkLagIndex(t, step, list)
	}

	// pick resolves an operand to a present workflow: the current head when
	// head is set, else by index.
	pick := func(a byte, head bool) int {
		if head {
			if e, ok := ref.Best(now); ok {
				return e.ID
			}
		}
		return present[int(a)%len(present)]
	}

	for pc, step := 0, 0; pc+queueOpsStep <= len(ops); pc, step = pc+queueOpsStep, step+1 {
		op, tb, a, b := ops[pc], ops[pc+1], ops[pc+2], ops[pc+3]
		if tb < 128 && len(boundaries) > 0 {
			at := boundaries[(int(tb)<<8|int(a))%len(boundaries)].Add(time.Duration(int(b%3)-1) * time.Nanosecond)
			if at > now {
				now = at
			}
		} else {
			now = now.Add(time.Duration(tb&127) * 160 * time.Millisecond)
		}
		switch r := op % 24; {
		case r < 6: // add
			nextID++
			deadline := now.Add(time.Duration(30+2*int(a)) * time.Second)
			boundaries = append(boundaries, deadline)
			// A small generator seeded by the operands stands in for the
			// random requirement list.
			x := uint32(a)<<8 | uint32(b) | 1<<16
			draw := func(n int) int {
				x = x*1664525 + 1013904223
				return int(x>>16) % n
			}
			var reqs []plan.Req
			ttd := time.Duration(50+draw(300)) * time.Second
			cum := 0
			for i := int(b) % 6; i > 0; i-- {
				cum += 1 + draw(4)
				reqs = append(reqs, plan.Req{TTD: ttd, Cum: cum})
				boundaries = append(boundaries, deadline.Add(-ttd))
				ttd -= time.Duration(1+draw(40)) * time.Second
			}
			for _, q := range all {
				// Each queue owns its own entry and mutable reqs copy.
				q.Add(mode.entry(nextID, deadline, append([]plan.Req(nil), reqs...)), now)
			}
			present = append(present, nextID)
			sched[nextID] = 0
		case len(present) == 0:
		case r < 8: // remove
			i := int(a) % len(present)
			id := present[i]
			if list.entries[id].startable != 0 {
				cov.maskedRemoves++
			}
			for _, q := range all {
				if !q.Remove(id, now) {
					t.Fatalf("step %d: Remove(%d) = false", step, id)
				}
			}
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
			delete(sched, id)
		case r < 12: // scheduled
			id := pick(a, b&1 != 0)
			for _, q := range all {
				q.Scheduled(id, now)
			}
			sched[id]++
		case r < 14: // unscheduled (requeue), never below zero progress
			id := pick(a, false)
			if sched[id] == 0 {
				break
			}
			for _, q := range all {
				q.Unscheduled(id, now)
			}
			sched[id]--
		case r < 20: // flip one startable bit
			head := b&4 != 0
			id := pick(a, head)
			cov.flips++
			if head {
				cov.headFlips++
			}
			e := list.entries[id]
			if e.bktPrev == nil && e.bktNext == nil {
				cov.loneFlips++
			}
			if e.overdue {
				cov.overdueFlips++
			}
			for _, q := range all {
				q.SetStartable(id, int(b&1), b&2 != 0)
			}
		}
		if op < 192 {
			check(step)
		}
	}
	for step := 0; ref.Len() > 0; step++ {
		check(-1 - step)
		e, _ := ref.Best(now)
		for _, q := range all {
			q.Remove(e.ID, now)
		}
	}
	check(-1)
	return cov
}

// checkLagIndex verifies the class partition's own invariants on the DSL
// backend: every entry is filed under its current mask, band and key, in
// exactly one class (the class populations add up to the queue's length),
// and each non-empty band's top bucket is occupied.
func checkLagIndex(t *testing.T, step int, l *List) {
	t.Helper()
	ix := l.prio.(*lagIndex)
	total := 0
	for m := range ix.classes {
		for i := range ix.classes[m] {
			b := &ix.classes[m][i]
			total += b.count
			if b.count > 0 && b.pages[(b.top>>lagPageBits)-b.page0].buckets[b.top&lagSlotMask].head == nil {
				t.Fatalf("step %d: class %b band %d: top bucket %d is empty with %d entries in the band", step, m, i, b.top, b.count)
			}
		}
	}
	if total != l.count {
		t.Fatalf("step %d: classes hold %d entries, queue %d", step, total, l.count)
	}
	for _, e := range l.entries {
		if e == nil {
			continue
		}
		band, key := lagPos(e)
		if e.bktMask != e.startable || int(e.bktBand) != band || e.bktKey != key {
			t.Fatalf("step %d: wf %d filed under (mask %b, band %d, key %d), is (mask %b, band %d, key %d)",
				step, e.ID, e.bktMask, e.bktBand, e.bktKey, e.startable, band, key)
		}
	}
}

func TestPropertyBackendsMatchNaive(t *testing.T) {
	for mode := propPlain; mode < propModes; mode++ {
		for _, seed := range []int64{1, 42, 20140623} {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				t.Parallel()
				ops := make([]byte, 4000*queueOpsStep)
				rand.New(rand.NewSource(seed)).Read(ops)
				cov := checkQueueOps(t, mode, ops)
				if cov.headFlips == 0 || cov.loneFlips == 0 || cov.maskedRemoves == 0 {
					t.Errorf("program missed a corner: %+v", cov)
				}
				if mode == propDemoteOverdue && cov.overdueFlips == 0 {
					t.Errorf("no flip landed on a demoted entry: %+v", cov)
				}
			})
		}
	}
}

// queueOpsSeeds are hand-written programs for the corners; each step is
// {opcode, clock, a, b}. Clock 128+k advances k × 160ms.
var queueOpsSeeds = [][]byte{
	{},
	// One workflow: flip map on, reduce on, map off, reduce off — each flip
	// moves the only member of the only bucket between classes — then remove
	// it while masked.
	{0, 128, 10, 3, 14, 128, 0, 2, 14, 128, 0, 3, 14, 128, 0, 0, 14, 128, 0, 3, 6, 128, 0, 0},
	// Three workflows sharing one bucket; the head flips out of it and back,
	// then is scheduled away from it.
	{0, 128, 10, 0, 0, 128, 10, 0, 0, 128, 10, 0, 14, 128, 0, 6, 14, 128, 0, 4, 8, 128, 0, 1},
	// A short deadline: run the clock past it, flip the demoted (or, in the
	// other modes, maximally lagging) entry, unschedule and remove.
	{0, 128, 0, 5, 8, 128, 0, 0, 20, 255, 0, 0, 20, 255, 0, 0, 14, 128, 0, 2, 12, 128, 0, 0, 6, 128, 0, 0},
}

// FuzzQueueOps feeds arbitrary op programs to checkQueueOps in each mode.
func FuzzQueueOps(f *testing.F) {
	for _, s := range queueOpsSeeds {
		for mode := propPlain; mode < propModes; mode++ {
			f.Add(byte(mode), s)
		}
	}
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		if len(ops) > 1<<12 {
			return // the reference rescans in O(n) three times a step
		}
		checkQueueOps(t, propMode(mode)%propModes, ops)
	})
}
