package dsl

// Steady-state allocation pins for the queue hot path. On a warm queue —
// entries added, pages and node pools grown, every due requirement settled —
// a Best decision followed by a Scheduled/Unscheduled progress round-trip,
// and a BestStartable decision around a startable-mask flip, must not
// allocate: the bucketed lag index repositions entries with pointer moves
// (between classes as between buckets), the set-backed ct/priority
// structures recycle their nodes through free lists, and their
// BestStartable scan runs a callback bound at construction. Wired into
// `make ci` via the alloc-pins target.

import (
	"testing"
)

func TestQueueOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts; the zero-alloc pin holds only in regular builds")
	}
	backends := map[string]Queue{
		"DSL": New(11),
		"BST": NewBST(),
	}
	for name, q := range backends {
		t.Run(name, func(t *testing.T) {
			const n = 1000
			for i := 0; i < n; i++ {
				// Staggered deadlines so the warm queue holds a spread of
				// priorities across buckets.
				deadline := at(float64(100 + (i%7)*50))
				q.Add(NewEntry(i, deadline, testReqs()), at(0))
				// Every third workflow can start a map, every fifth a
				// reduce, so all four mask classes are populated and the
				// set-backed scans have entries to pass over.
				q.SetStartable(i, 0, i%3 == 0)
				q.SetStartable(i, 1, i%5 == 0)
			}
			now := at(60) // past several requirement boundaries
			op := func() {
				e, ok := q.Best(now)
				if !ok {
					t.Fatal("Best found nothing on a populated queue")
				}
				q.Scheduled(e.ID, now)
				q.Unscheduled(e.ID, now)
				for st := 0; st <= 1; st++ {
					e, ok := q.BestStartable(now, st)
					if !ok {
						t.Fatal("BestStartable found nothing on a populated queue")
					}
					q.SetStartable(e.ID, st, false)
					q.SetStartable(e.ID, st, true)
				}
			}
			// Warm up: the first Best settles every fired requirement, and
			// the first round-trips fault in any adjacent lag buckets (in
			// every class the flips visit) and prime the node free lists.
			op()
			op()
			if got := testing.AllocsPerRun(100, op); got != 0 {
				t.Errorf("%s Best+Scheduled+Unscheduled+BestStartable+SetStartable allocates %.1f/op, want 0", name, got)
			}
		})
	}
}
