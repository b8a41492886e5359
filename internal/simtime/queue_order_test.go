package simtime

// Pop-order pins for the two-lane queue: whatever mix of Push, PushFront and
// PushOrdered filled it, and whichever lane each event went to, events leave
// in the order of a reference that sorts by (at, seq) — seq being the push
// counter, with PushFront drawing from a band below every other push.

import (
	"bytes"
	"math/rand"
	"testing"
)

// refEvent is one pending event of the reference model.
type refEvent struct {
	at    Time
	front bool
	seq   int // position among pushes of the same band
	id    int
}

// refQueue is the model: an unsorted bag, popped by linear search for the
// minimum (at, band, seq).
type refQueue struct {
	evs       []refEvent
	seq, fseq int
	nextID    int
}

func (r *refQueue) push(at Time, front bool) int {
	e := refEvent{at: at, front: front, id: r.nextID}
	r.nextID++
	if front {
		r.fseq++
		e.seq = r.fseq
	} else {
		r.seq++
		e.seq = r.seq
	}
	r.evs = append(r.evs, e)
	return e.id
}

func (e refEvent) before(o refEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.front != o.front {
		return e.front
	}
	return e.seq < o.seq
}

// peek returns the earliest event without removing it.
func (r *refQueue) peek() (e refEvent, idx int, ok bool) {
	if len(r.evs) == 0 {
		return refEvent{}, 0, false
	}
	for i := range r.evs {
		if r.evs[i].before(r.evs[idx]) {
			idx = i
		}
	}
	return r.evs[idx], idx, true
}

func (r *refQueue) pop() (refEvent, bool) {
	e, idx, ok := r.peek()
	if ok {
		r.evs = append(r.evs[:idx], r.evs[idx+1:]...)
	}
	return e, ok
}

func (r *refQueue) reset() { *r = refQueue{nextID: r.nextID} }

// checkQueueOps interprets ops as a program over a Queue and the reference
// side by side and fails on the first disagreement. Each step reads an opcode
// byte and, for pushes, an operand byte choosing the instant relative to the
// clock (the instant of the last event popped): mostly a little ahead of it,
// sometimes at it — a push mid-drain, which must join the next batch — and
// sometimes anywhere, including behind the clock and behind the lane's tail.
// It returns how many PushOrdered calls took the lane and how many fell back.
func checkQueueOps(t *testing.T, ops []byte) (onLane, fellBack int) {
	t.Helper()
	var q Queue[int]
	var ref refQueue
	var clock Time
	var batch []int
	for pc := 0; pc < len(ops); pc++ {
		op := ops[pc] % 16
		var arg byte
		if op < 10 && pc+1 < len(ops) {
			pc++
			arg = ops[pc]
		}
		at := clock + Time(arg%8) // near future, ties likely
		if arg >= 224 {
			at = Time(arg % 32) // anywhere, often in the past
		}
		switch {
		case op < 3:
			q.Push(at, ref.push(at, false))
		case op < 4:
			q.PushFront(at, ref.push(at, true))
		case op < 10:
			// The periodic source: usually one fixed interval ahead of the
			// clock, which keeps the lane in order by itself.
			if arg < 160 {
				at = clock + 8
			}
			if q.PushOrdered(at, ref.push(at, false)) {
				onLane++
			} else {
				fellBack++
			}
		case op < 13:
			want, _, wantOK := ref.peek()
			if at, ok := q.Peek(); ok != wantOK || at != want.at {
				t.Fatalf("step %d: Peek = (%v, %v), want (%v, %v)", pc, at, ok, want.at, wantOK)
			}
			ref.pop()
			at, id, ok := q.Pop()
			if ok != wantOK || at != want.at || id != want.id {
				t.Fatalf("step %d: Pop = (%v, %d, %v), want (%v, %d, %v)", pc, at, id, ok, want.at, want.id, wantOK)
			}
			if ok {
				clock = at
			}
		case op < 15:
			batch = batch[:0]
			at, n := q.DrainInstant(&batch)
			if n != len(batch) {
				t.Fatalf("step %d: DrainInstant n=%d, appended %d", pc, n, len(batch))
			}
			if n == 0 {
				if len(ref.evs) != 0 {
					t.Fatalf("step %d: DrainInstant drained nothing, reference has %d events", pc, len(ref.evs))
				}
				break
			}
			for i, id := range batch {
				want, _ := ref.pop()
				if want.at != at || want.id != id {
					t.Fatalf("step %d: drained[%d] = (%v, %d), want (%v, %d)", pc, i, at, id, want.at, want.id)
				}
			}
			if want, _, ok := ref.peek(); ok && want.at == at {
				t.Fatalf("step %d: DrainInstant left event %d behind at its instant %v", pc, want.id, at)
			}
			clock = at
		default:
			// Reset is rare in a byte stream (1 in 16), and reuse afterwards
			// is the point: the stamps and the ring must both start over.
			q.Reset()
			ref.reset()
			clock = 0
		}
		if q.Len() != len(ref.evs) {
			t.Fatalf("step %d: Len = %d, want %d", pc, q.Len(), len(ref.evs))
		}
	}
	for len(ref.evs) > 0 {
		want, _ := ref.pop()
		at, id, ok := q.Pop()
		if !ok || at != want.at || id != want.id {
			t.Fatalf("final drain: Pop = (%v, %d, %v), want (%v, %d)", at, id, ok, want.at, want.id)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("final drain: queue holds events the reference does not")
	}
	return onLane, fellBack
}

// queueOrderSeeds are hand-written programs for the corners. Operand 160+k
// is "k after the clock" for every kind of push.
var queueOrderSeeds = [][]byte{
	{},
	// Two ordered pushes, then one behind the lane's tail.
	{4, 163, 4, 165, 4, 161, 11, 11, 11},
	// One instant reached through the lane, the heap and the front band, in
	// turn; then pushes at that instant between two drains of it.
	{4, 163, 0, 163, 3, 163, 4, 163, 0, 163, 13, 0, 160, 4, 160, 13},
	// Reset with a loaded lane, then reuse.
	{4, 163, 4, 165, 15, 4, 161, 0, 160, 11, 11},
	// Forty ordered pushes: the ring grows twice, then wraps as it drains
	// and refills.
	append(append(bytes.Repeat([]byte{4, 0}, 40), bytes.Repeat([]byte{11}, 30)...), bytes.Repeat([]byte{4, 0, 11}, 40)...),
}

// FuzzQueueOrder feeds arbitrary op programs to checkQueueOps.
func FuzzQueueOrder(f *testing.F) {
	for _, s := range queueOrderSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			return // the reference pops in O(n); keep one input cheap
		}
		checkQueueOps(t, ops)
	})
}

// TestQueueOrderProperty runs checkQueueOps over seeded random programs long
// enough for the ring to wrap and grow many times over.
func TestQueueOrderProperty(t *testing.T) {
	for _, s := range queueOrderSeeds {
		checkQueueOps(t, s)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 6000)
		rng.Read(ops)
		if seed%2 == 0 {
			// Push-heavy variant: turn half the pops into ordered pushes so
			// the queue runs hundreds deep instead of hovering near empty.
			for i := range ops {
				if ops[i]%16 >= 10 && ops[i]%16 < 13 && rng.Intn(2) == 0 {
					ops[i] = 4
				}
			}
		}
		onLane, fellBack := checkQueueOps(t, ops)
		if onLane < 100 || fellBack < 100 {
			t.Errorf("seed %d: %d lane pushes and %d fallbacks; the program does not exercise both", seed, onLane, fellBack)
		}
	}
}

// TestQueueOrderedAllocs pins the lane's steady state: once the ring has
// grown to the working set, PushOrdered and the pop that follows allocate
// nothing — in order or falling back to a heap that has been that deep.
func TestQueueOrderedAllocs(t *testing.T) {
	var q Queue[int]
	var batch []int
	const depth = 256
	now := Time(0)
	cycle := func() {
		for i := 0; i < depth; i++ {
			q.PushOrdered(now+Time(depth+i), i)
		}
		q.PushOrdered(now, -1) // behind the tail: heap fallback
		for q.Len() > 0 {
			batch = batch[:0]
			now, _ = q.DrainInstant(&batch)
		}
	}
	cycle() // warm: ring, heap and batch reach their working size
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Errorf("warm PushOrdered/DrainInstant cycle allocates %.1f/run, want 0", got)
	}
	q.Reset()
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Errorf("cycle after Reset allocates %.1f/run, want 0 (Reset must keep the ring)", got)
	}
}

// BenchmarkQueueHeartbeatMix is the event mix of a heartbeat-driven cluster:
// 1500 periodic sources each re-arming one interval ahead as they fire, and
// beside them one-shot events (task completions) at scattered instants, about
// one in ten. "lane" re-arms with PushOrdered, "heap" with Push — the same
// pop sequence, so the difference is the cost of keeping periodic events in
// the heap.
func BenchmarkQueueHeartbeatMix(b *testing.B) {
	const sources, interval = 1500, Time(3_000_000_000)
	for _, lane := range []bool{true, false} {
		name := "heap"
		if lane {
			name = "lane"
		}
		b.Run(name, func(b *testing.B) {
			var q Queue[int]
			arm := func(at Time, src int) {
				if lane {
					q.PushOrdered(at, src)
				} else {
					q.Push(at, src)
				}
			}
			rng := rand.New(rand.NewSource(1))
			for s := 0; s < sources; s++ {
				arm(interval*Time(s)/sources, s)
			}
			for i := 0; i < sources/10; i++ {
				q.Push(Time(rng.Int63n(int64(20*interval))), -1)
			}
			batch := make([]int, 0, 16)
			b.ResetTimer()
			for i := 0; i < b.N; {
				batch = batch[:0]
				now, n := q.DrainInstant(&batch)
				i += n
				for _, src := range batch {
					if src >= 0 {
						arm(now+interval, src)
					} else {
						q.Push(now+Time(rng.Int63n(int64(20*interval))), -1)
					}
				}
			}
		})
	}
}
