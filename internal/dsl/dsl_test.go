package dsl

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/simtime"
)

// testReqs: requirements 2/4/6 tasks at ttd 50/40/30s.
func testReqs() []plan.Req {
	return []plan.Req{
		{TTD: 50 * time.Second, Cum: 2},
		{TTD: 40 * time.Second, Cum: 4},
		{TTD: 30 * time.Second, Cum: 6},
	}
}

func at(sec float64) simtime.Time { return simtime.FromSeconds(sec) }

func TestEntryRefresh(t *testing.T) {
	// Deadline 100s → requirement change times at 50s, 60s, 70s.
	e := NewEntry(1, at(100), testReqs())

	e.refresh(at(0))
	if e.prio != 0 || e.nextChange != at(50) {
		t.Errorf("at 0s: prio=%d next=%v, want 0, 50s", e.prio, e.nextChange)
	}

	e.refresh(at(50))
	if e.prio != 2 || e.nextChange != at(60) {
		t.Errorf("at 50s: prio=%d next=%v, want 2, 60s", e.prio, e.nextChange)
	}

	e.rho = 3
	e.refresh(at(65))
	if e.prio != 4-3 || e.nextChange != at(70) {
		t.Errorf("at 65s: prio=%d next=%v, want 1, 70s", e.prio, e.nextChange)
	}

	e.refresh(at(200)) // long past every change (and the deadline)
	if e.prio != 6-3 || e.nextChange != simtime.MaxTime {
		t.Errorf("at 200s: prio=%d next=%v, want 3, +inf", e.prio, e.nextChange)
	}
}

func TestEntryEmptyReqs(t *testing.T) {
	e := NewEntry(1, at(100), nil)
	e.refresh(at(10))
	if e.prio != 0 || e.nextChange != simtime.MaxTime {
		t.Errorf("prio=%d next=%v, want 0, +inf", e.prio, e.nextChange)
	}
}

func queues(seed int64) map[string]Queue {
	return map[string]Queue{
		"DSL":   New(seed),
		"BST":   NewBST(),
		"Naive": NewNaive(),
	}
}

func TestBestPrefersGreatestLag(t *testing.T) {
	for name, q := range queues(1) {
		t.Run(name, func(t *testing.T) {
			// Workflow 1: deadline 100s → first change at 50s.
			// Workflow 2: deadline 80s → first change at 30s.
			q.Add(NewEntry(1, at(100), testReqs()), at(0))
			q.Add(NewEntry(2, at(80), testReqs()), at(0))

			// Before any change both lag 0: tie broken by ID.
			e, ok := q.Best(at(0))
			if !ok || e.ID != 1 {
				t.Fatalf("Best(0s) = %v, want workflow 1", e)
			}
			// At 30s workflow 2's first requirement (2 tasks) fires.
			e, _ = q.Best(at(30))
			if e.ID != 2 || e.Lag() != 2 {
				t.Fatalf("Best(30s) = wf %d lag %d, want wf 2 lag 2", e.ID, e.Lag())
			}
			// Scheduling two of workflow 2's tasks erases its lag.
			q.Scheduled(2, at(30))
			q.Scheduled(2, at(30))
			e, _ = q.Best(at(30))
			if e.ID != 1 {
				t.Fatalf("Best after catching up = wf %d, want wf 1", e.ID)
			}
		})
	}
}

func TestRemove(t *testing.T) {
	for name, q := range queues(2) {
		t.Run(name, func(t *testing.T) {
			q.Add(NewEntry(1, at(100), testReqs()), at(0))
			q.Add(NewEntry(2, at(90), testReqs()), at(0))
			if !q.Remove(1, at(10)) {
				t.Fatal("Remove(1) = false")
			}
			if q.Remove(1, at(10)) {
				t.Fatal("second Remove(1) = true")
			}
			if q.Len() != 1 {
				t.Fatalf("Len = %d, want 1", q.Len())
			}
			e, ok := q.Best(at(60))
			if !ok || e.ID != 2 {
				t.Fatalf("Best = %v, want workflow 2", e)
			}
			q.Remove(2, at(60))
			if _, ok := q.Best(at(60)); ok {
				t.Fatal("Best on empty queue reported ok")
			}
		})
	}
}

// TestBestStartable: the answer is the most lagging workflow among those
// marked for the slot type, which need not be the head; flips and removals
// take effect at once, and an unknown id is ignored.
func TestBestStartable(t *testing.T) {
	const mapSlot, reduceSlot = 0, 1
	for name, q := range queues(3) {
		t.Run(name, func(t *testing.T) {
			// Deadlines 60/80/100s: at t=45s wf1 has two requirements fired,
			// wf2 one, wf3 none, so the queue order is 1, 2, 3.
			q.Add(NewEntry(1, at(60), testReqs()), at(0))
			q.Add(NewEntry(2, at(80), testReqs()), at(0))
			q.Add(NewEntry(3, at(100), testReqs()), at(0))
			want := func(st, id int) {
				t.Helper()
				e, ok := q.BestStartable(at(45), st)
				if id < 0 {
					if ok {
						t.Fatalf("BestStartable(%d) = wf %d, want none", st, e.ID)
					}
					return
				}
				if !ok || e.ID != id || !e.Startable(st) {
					t.Fatalf("BestStartable(%d) = %v, %v, want wf %d", st, e, ok, id)
				}
			}
			want(mapSlot, -1) // entries start with nothing startable
			q.SetStartable(3, mapSlot, true)
			q.SetStartable(2, reduceSlot, true)
			q.SetStartable(99, mapSlot, true)
			want(mapSlot, 3)
			want(reduceSlot, 2)
			q.SetStartable(2, mapSlot, true) // both bits: serves either type
			want(mapSlot, 2)
			want(reduceSlot, 2)
			q.SetStartable(1, reduceSlot, true)
			want(reduceSlot, 1)
			want(mapSlot, 2)
			if e, _ := q.Best(at(45)); e.ID != 1 {
				t.Fatalf("Best = wf %d, want 1 whatever the masks", e.ID)
			}
			q.SetStartable(2, mapSlot, false)
			want(mapSlot, 3)
			q.Remove(3, at(45))
			want(mapSlot, -1)
			want(reduceSlot, 1)
		})
	}
}

// TestImplementationsAgree drives the DSL, BST, and naive queues with an
// identical randomized workload of adds, removals, schedulings, and queries
// at advancing times, and requires identical Best answers throughout. This
// is the core correctness argument for the incremental Algorithm 2: it must
// be observationally equivalent to the naive full recomputation.
func TestImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	impls := []struct {
		name string
		q    Queue
	}{
		{"DSL", New(7)},
		{"BST", NewBST()},
		{"Naive", NewNaive()},
	}

	mkReqs := func() []plan.Req {
		n := 1 + rng.Intn(8)
		reqs := make([]plan.Req, 0, n)
		ttd := time.Duration(200+rng.Intn(400)) * time.Second
		cum := 0
		for i := 0; i < n; i++ {
			cum += 1 + rng.Intn(5)
			reqs = append(reqs, plan.Req{TTD: ttd, Cum: cum})
			ttd -= time.Duration(1+rng.Intn(60)) * time.Second
		}
		return reqs
	}

	present := map[int]bool{}
	nextID := 0
	now := simtime.Epoch
	for step := 0; step < 5000; step++ {
		now = now.Add(time.Duration(rng.Intn(10)) * time.Second)
		switch r := rng.Intn(10); {
		case r < 4: // add
			nextID++
			deadline := now.Add(time.Duration(100+rng.Intn(600)) * time.Second)
			reqs := mkReqs()
			for _, im := range impls {
				// Each queue owns its own mutable copy.
				im.q.Add(NewEntry(nextID, deadline, append([]plan.Req(nil), reqs...)), now)
			}
			present[nextID] = true
		case r < 5: // remove a random present id
			for id := range present {
				for _, im := range impls {
					if !im.q.Remove(id, now) {
						t.Fatalf("step %d: %s.Remove(%d) = false", step, im.name, id)
					}
				}
				delete(present, id)
				break
			}
		default: // query + schedule
			var wantID int
			var wantLag int
			for i, im := range impls {
				e, ok := im.q.Best(now)
				if !ok {
					if len(present) != 0 {
						t.Fatalf("step %d: %s.Best empty with %d present", step, im.name, len(present))
					}
					wantID = -1
					continue
				}
				if i == 0 {
					wantID, wantLag = e.ID, e.Lag()
				} else if e.ID != wantID || e.Lag() != wantLag {
					t.Fatalf("step %d at %v: %s.Best = (wf %d, lag %d), DSL said (wf %d, lag %d)",
						step, now, im.name, e.ID, e.Lag(), wantID, wantLag)
				}
			}
			if wantID >= 0 {
				for _, im := range impls {
					im.q.Scheduled(wantID, now)
				}
			}
		}
		if l := impls[0].q.Len(); l != len(present) {
			t.Fatalf("step %d: Len = %d, want %d", step, l, len(present))
		}
	}
}

// TestSettleIsLazy checks that queries far in the future still give correct
// priorities even when many requirement changes fire between queries.
func TestSettleIsLazy(t *testing.T) {
	q := New(5)
	q.Add(NewEntry(1, at(1000), testReqs()), at(0)) // changes at 950, 960, 970
	q.Add(NewEntry(2, at(100), testReqs()), at(0))  // changes at 50, 60, 70
	e, _ := q.Best(at(2000))                        // everything fired
	if e.ID != 1 && e.ID != 2 {
		t.Fatal("Best returned nonsense")
	}
	// Both have full requirement 6, lag 6; tie → wf 1.
	if e.ID != 1 || e.Lag() != 6 {
		t.Errorf("Best(2000s) = wf %d lag %d, want wf 1 lag 6", e.ID, e.Lag())
	}
}

func BenchmarkBestScheduled(b *testing.B) {
	benches := []struct {
		name string
		mk   func() Queue
	}{
		{"DSL", func() Queue { return New(1) }},
		{"BST", func() Queue { return NewBST() }},
		{"Naive", func() Queue { return NewNaive() }},
	}
	for _, bb := range benches {
		b.Run(bb.name, func(b *testing.B) {
			q := bb.mk()
			rng := rand.New(rand.NewSource(2))
			const nw = 10000
			for i := 0; i < nw; i++ {
				deadline := simtime.FromSeconds(float64(1000 + rng.Intn(100000)))
				reqs := []plan.Req{
					{TTD: 500 * time.Second, Cum: 10},
					{TTD: 200 * time.Second, Cum: 50},
				}
				q.Add(NewEntry(i, deadline, reqs), 0)
			}
			b.ResetTimer()
			b.ReportAllocs()
			now := simtime.Epoch
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Millisecond)
				e, ok := q.Best(now)
				if !ok {
					b.Fatal("empty queue")
				}
				q.Scheduled(e.ID, now)
			}
		})
	}
}
