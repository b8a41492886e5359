package simtime

// Pop-order pins for the radix queue: whatever mix of Push and PushFront
// filled it, and whichever buckets each event passed through, events leave
// in the order of a reference that sorts by (at, seq) — seq being the push
// counter, with PushFront drawing from a band below every other push.

import (
	"bytes"
	"math/bits"
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

// queueCoverage counts what one program reached.
type queueCoverage struct {
	// deepest is the most events the queue held at once.
	deepest int
	// refiled has bit i-1 set once bucket i > 0 has been re-filed by a pop.
	refiled uint64
	// belowLast counts pushes below last while the buckets held events.
	belowLast int
	// frontAhead counts PushFronts into a bucket that already held a normal
	// event of their instant.
	frontAhead int
}

// ahead returns d after t, or MaxTime where that overflows.
func ahead(t Time, d Time) Time {
	if t > MaxTime-d {
		return MaxTime
	}
	return t + d
}

// checkQueueOps interprets ops as a program over a Queue and the reference
// side by side and fails on the first disagreement. Each step reads an opcode
// byte and, for pushes, an operand byte choosing the instant relative to the
// clock (the instant of the last event popped): below 192, a little ahead of
// it or at it — a push mid-drain, which must join the next batch; 192+k,
// 2^k ahead (k up to 62), which files the event in a high bucket; 255,
// MaxTime. A plain push or PushFront whose opcode byte's high nibble is 14
// goes anywhere in [0, 32) instead, and one whose nibble is 15 goes 1 to 32
// behind the clock, usually below the queue's last while it holds events.
// An ordered push comes from one of five periodic sources, the opcode byte's
// high nibble mod 5; below 160 its operand is ignored and it goes its
// source's interval ahead of the clock. The returned coverage says which of
// the queue's paths the program took.
func checkQueueOps(t *testing.T, ops []byte) (cov queueCoverage) {
	t.Helper()
	var q Queue[int]
	var ref refQueue
	var clock Time
	var batch []int
	for pc := 0; pc < len(ops); pc++ {
		code := ops[pc]
		op := code % 16
		var arg byte
		if op < 10 && pc+1 < len(ops) {
			pc++
			arg = ops[pc]
		}
		at := ahead(clock, Time(arg%8)) // near future, ties likely
		switch {
		case arg == 255:
			at = MaxTime
		case arg >= 192:
			at = ahead(clock, 1<<(arg-192))
		}
		if op < 4 {
			switch code >> 4 {
			case 14:
				at = Time(arg % 32) // anywhere, often in the past
			case 15:
				at = clock - 1 - Time(arg%32)
			}
			if at < q.last && q.n > 0 {
				cov.belowLast++
			}
		}
		switch {
		case op < 3:
			q.Push(at, ref.push(at, false))
		case op < 4:
			if at >= q.last {
				i := q.bucketOf(at)
				b := q.buckets[i]
				if i == 0 {
					b = b[q.head0:]
				}
				for _, e := range b {
					if e.at == at && e.seq&normalBand != 0 {
						cov.frontAhead++
						break
					}
				}
			}
			q.PushFront(at, ref.push(at, true))
		case op < 10:
			// The periodic source: usually one fixed interval ahead of the
			// clock. Each source has an interval of its own, so the sources
			// interleave.
			if arg < 160 {
				at = ahead(clock, Time(8+int(code>>4)%5))
			}
			q.Push(at, ref.push(at, false))
		case op < 13:
			want, _, wantOK := ref.peek()
			if at, ok := q.Peek(); ok != wantOK || at != want.at {
				t.Fatalf("step %d: Peek = (%v, %v), want (%v, %v)", pc, at, ok, want.at, wantOK)
			}
			ref.pop()
			occ := q.occ
			at, id, ok := q.Pop()
			cov.refiled |= occ &^ q.occ
			if ok != wantOK || at != want.at || id != want.id {
				t.Fatalf("step %d: Pop = (%v, %d, %v), want (%v, %d, %v)", pc, at, id, ok, want.at, want.id, wantOK)
			}
			if ok {
				clock = at
			}
		case op < 15:
			batch = batch[:0]
			occ := q.occ
			at, n := q.DrainInstant(&batch)
			cov.refiled |= occ &^ q.occ
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
			// is the point: the stamps and the buckets must both start over.
			q.Reset()
			ref.reset()
			clock = 0
		}
		if q.Len() != len(ref.evs) {
			t.Fatalf("step %d: Len = %d, want %d", pc, q.Len(), len(ref.evs))
		}
		cov.deepest = max(cov.deepest, q.Len())
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
	return cov
}

// queueOrderSeeds are hand-written programs for the corners. Operand 160+k
// is "k after the clock" for every kind of push, 192+k "2^k after it";
// opcode 16k+4 (k = 0..4) is an ordered push from source k, and 240 a push
// behind the clock.
var queueOrderSeeds = [][]byte{
	{},
	// Two ordered pushes, then one behind both.
	{4, 163, 4, 165, 4, 161, 11, 11, 11},
	// One instant reached by an ordered, a plain and a front push, in turn;
	// then pushes at that instant between two drains of it.
	{4, 163, 0, 163, 3, 163, 4, 163, 0, 163, 13, 0, 160, 4, 160, 13},
	// Reset with ordered pushes pending, then reuse.
	{4, 163, 4, 165, 15, 4, 161, 0, 160, 11, 11},
	// Forty ordered pushes at one instant, thirty popped from bucket 0's
	// front, then forty rounds of a push one interval ahead and a pop.
	append(append(bytes.Repeat([]byte{4, 0}, 40), bytes.Repeat([]byte{11}, 30)...), bytes.Repeat([]byte{4, 0, 11}, 40)...),
	// All five sources, interleaved, drained instant by instant.
	{20, 0, 36, 0, 52, 0, 68, 0, 4, 0, 20, 0, 36, 0, 13, 13, 13, 13, 13, 13},
	// A source's push behind its previous one, then another source's at the
	// same instant.
	{20, 165, 20, 161, 36, 161, 11, 11, 11},
	// A source's event popped before the next is pushed, so the queue empties
	// between pushes; then two sources at once.
	{20, 0, 11, 20, 0, 36, 0, 11, 11, 52, 0, 11},
	// Reset with three sources' events pending, then reuse.
	{20, 0, 36, 0, 4, 0, 15, 36, 0, 20, 0, 11, 11},
	// One instant reached by three sources' ordered pushes, a plain push and
	// a front push; then a push at it between two drains.
	{20, 160, 36, 160, 0, 160, 4, 160, 3, 160, 13, 20, 160, 13},
	// A ladder of far pushes, drained from the nearest: each pop re-files
	// the bucket of the next rung; then MaxTime, reached and pushed at.
	{0, 254, 0, 232, 0, 212, 0, 197, 0, 255, 13, 13, 13, 13, 0, 160, 0, 255, 13, 13, 13},
	// A front push into a high bucket already holding a normal event of its
	// instant, and another into bucket 0.
	{0, 200, 0, 201, 3, 200, 11, 0, 160, 3, 160, 13, 13},
	// Pushes behind last while events are held: every bucket re-files
	// against the new instant; then a front push there.
	{0, 163, 0, 210, 11, 0, 163, 240, 0, 243, 5, 11, 13, 13, 13},
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
// enough for the buckets to re-file and empty many times over.
func TestQueueOrderProperty(t *testing.T) {
	var refiled uint64
	for _, s := range queueOrderSeeds {
		refiled |= checkQueueOps(t, s).refiled
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 6000)
		rng.Read(ops)
		if seed%2 == 0 {
			// Push-heavy variant: turn half the pops and every Reset into
			// ordered pushes so the queue runs hundreds deep instead of
			// hovering near empty. Resets are the odd seeds' to cover.
			for i := range ops {
				if ops[i]%16 >= 10 && ops[i]%16 < 13 && rng.Intn(2) == 0 || ops[i]%16 == 15 {
					ops[i] = 4
				}
			}
		}
		cov := checkQueueOps(t, ops)
		if seed%2 == 0 && cov.deepest < 200 {
			t.Errorf("seed %d: the push-heavy program held at most %d events at once, want hundreds", seed, cov.deepest)
		}
		if cov.belowLast == 0 || cov.frontAhead == 0 {
			t.Errorf("seed %d: %d pushes below last and %d front pushes ahead of their instant's normal events; want some of each",
				seed, cov.belowLast, cov.frontAhead)
		}
		refiled |= cov.refiled
	}
	if n := bits.OnesCount64(refiled); n < 16 {
		t.Errorf("pops re-filed %d distinct buckets (mask %#x), want at least 16", n, refiled)
	}
}

// TestQueueOrderedAllocs pins the queue's steady state: once the buckets
// have grown to the working set, Push and DrainInstant allocate nothing —
// for events pushed in firing order, from one source or from eight that
// interleave, and at scattered instants — and Reset keeps that storage.
func TestQueueOrderedAllocs(t *testing.T) {
	var q Queue[int]
	var batch []int
	const depth = 256
	now := Time(0)
	// A bucket's fill follows the bits of the clock, which moves on every
	// cycle, so the buckets take some cycles to reach the largest fill they
	// will see (16 suffice here; 64 leave a margin).
	warm := func(cycle func()) {
		for i := 0; i < 64; i++ {
			cycle()
		}
	}
	drain := func() {
		for q.Len() > 0 {
			batch = batch[:0]
			now, _ = q.DrainInstant(&batch)
		}
	}
	// One source, in firing order, and one event at the clock itself.
	ordered := func() {
		for i := 0; i < depth; i++ {
			q.Push(now+Time(depth+i), i)
		}
		q.Push(now, -1)
		drain()
	}
	warm(ordered)
	if got := testing.AllocsPerRun(20, ordered); got != 0 {
		t.Errorf("warm one-source Push/DrainInstant cycle allocates %.1f/run, want 0", got)
	}
	q.Reset()
	if got := testing.AllocsPerRun(20, ordered); got != 0 {
		t.Errorf("cycle after Reset allocates %.1f/run, want 0 (Reset must keep the buckets)", got)
	}

	// Eight sources whose events interleave, each in its own firing order.
	round := 0
	interleaved := func() {
		for i := 0; i < depth; i++ {
			src := (i + round) % 8
			q.Push(now+Time(depth+i/8*8+src), i)
		}
		q.Push(now, -1)
		round++
		drain()
	}
	warm(interleaved)
	if got := testing.AllocsPerRun(20, interleaved); got != 0 {
		t.Errorf("warm eight-source Push/DrainInstant cycle allocates %.1f/run, want 0", got)
	}
	q.Reset()
	if got := testing.AllocsPerRun(20, interleaved); got != 0 {
		t.Errorf("eight-source cycle after Reset allocates %.1f/run, want 0 (Reset must keep the buckets)", got)
	}

	// Scattered instants through Push alone, as a noisy run's completions
	// arrive: the buckets re-file and empty every cycle and keep their
	// storage.
	var d scatter
	scattered := func() {
		for i := 0; i < depth; i++ {
			q.Push(now+d.next(), i)
		}
		drain()
	}
	warm(scattered)
	if got := testing.AllocsPerRun(20, scattered); got != 0 {
		t.Errorf("warm scattered Push/DrainInstant cycle allocates %.1f/run, want 0", got)
	}
}

// scatter draws durations the way a noisy run's tasks take them: one of four
// job estimates from 20 s to 10 min, each ±20 %, from a fixed-seed
// xorshift generator that allocates nothing.
type scatter struct{ x uint64 }

func (s *scatter) next() Time {
	if s.x == 0 {
		s.x = 0x9e3779b97f4a7c15
	}
	s.x ^= s.x << 13
	s.x ^= s.x >> 7
	s.x ^= s.x << 17
	base := [4]Time{20e9, 60e9, 180e9, 600e9}[s.x&3]
	return base*4/5 + Time((s.x>>2)%uint64(base*2/5))
}

// BenchmarkQueueHeartbeatMix is the event mix of a heartbeat-driven cluster:
// 1500 periodic sources each re-arming one interval ahead as they fire, and
// beside them one-shot events (task completions) at scattered instants, about
// one in ten ("push"). "scattered" is a noisy run's completions alone: about
// 800 pending events, each re-pushed as it pops at a duration drawn like a
// noisy task's (scatter), so that instants rarely coincide.
func BenchmarkQueueHeartbeatMix(b *testing.B) {
	const sources, interval = 1500, Time(3_000_000_000)
	b.Run("push", func(b *testing.B) {
		var q Queue[int]
		rng := rand.New(rand.NewSource(1))
		for s := 0; s < sources; s++ {
			q.Push(interval*Time(s)/sources, s)
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
					q.Push(now+interval, src)
				} else {
					q.Push(now+Time(rng.Int63n(int64(20*interval))), -1)
				}
			}
		}
	})
	b.Run("scattered", func(b *testing.B) {
		const pending = 800
		var q Queue[int]
		var d scatter
		for i := 0; i < pending; i++ {
			q.Push(d.next(), i)
		}
		batch := make([]int, 0, 16)
		b.ResetTimer()
		for i := 0; i < b.N; {
			batch = batch[:0]
			now, n := q.DrainInstant(&batch)
			i += n
			for _, v := range batch {
				q.Push(now+d.next(), v)
			}
		}
	})
}
