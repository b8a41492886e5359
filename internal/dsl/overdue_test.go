package dsl

import (
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/simtime"
)

func TestOverdueEntryRefreshes(t *testing.T) {
	// Deadline 100s, requirements change at 50/60/70s.
	e := NewEntryDemoteOverdue(1, at(100), testReqs())

	e.refresh(at(0))
	if e.overdue {
		t.Error("overdue before the deadline")
	}
	if e.prio != 0 {
		t.Errorf("prio = %d, want 0", e.prio)
	}

	// After the last requirement change but before the deadline the entry
	// must keep a wake-up at the deadline itself so demotion fires.
	e.refresh(at(80))
	if e.overdue {
		t.Error("overdue at 80s with deadline 100s")
	}
	if e.nextChange != at(100) {
		t.Errorf("nextChange = %v, want deadline 100s", e.nextChange)
	}

	e.rho = 2
	e.refresh(at(100))
	if !e.overdue {
		t.Fatal("not overdue at the deadline")
	}
	wantPrio := overdueBias + (6 - 2)
	if e.prio != wantPrio {
		t.Errorf("overdue prio = %d, want %d", e.prio, wantPrio)
	}
	if e.nextChange != simtime.MaxTime {
		t.Errorf("nextChange = %v after demotion, want +inf", e.nextChange)
	}
}

func TestPlainEntryHasNoDeadlineWakeup(t *testing.T) {
	e := NewEntry(1, at(100), testReqs())
	e.refresh(at(80))
	if e.nextChange != simtime.MaxTime {
		t.Errorf("plain entry nextChange = %v, want +inf after last requirement", e.nextChange)
	}
	e.refresh(at(150))
	if e.prio != 6 {
		t.Errorf("plain entry prio after deadline = %d, want full lag 6", e.prio)
	}
}

func TestOverdueDropsBelowAchievable(t *testing.T) {
	for name, q := range map[string]Queue{"DSL": New(1), "BST": NewBST(), "Naive": NewNaive()} {
		t.Run(name, func(t *testing.T) {
			// Big zombie: deadline 10s, 1000-task requirement.
			zombieReqs := []plan.Req{{TTD: 5 * time.Second, Cum: 1000}}
			q.Add(NewEntryDemoteOverdue(1, at(10), zombieReqs), at(0))
			// Small achievable workflow: deadline 100s.
			q.Add(NewEntryDemoteOverdue(2, at(100), testReqs()), at(0))

			// Before the zombie's deadline it dominates (lag 1000).
			e, _ := q.Best(at(6))
			if e.ID != 1 {
				t.Fatalf("Best(6s) = wf %d, want zombie", e.ID)
			}
			// After its deadline it must drop below the achievable one.
			e, _ = q.Best(at(60))
			if e.ID != 2 {
				t.Fatalf("Best(60s) = wf %d, want achievable workflow", e.ID)
			}
			// With only zombies left, remaining-lag order still serves them.
			q.Remove(2, at(60))
			e, ok := q.Best(at(60))
			if !ok || e.ID != 1 {
				t.Fatalf("Best with only zombie = %v, %v", e, ok)
			}
		})
	}
}

func TestTwoOverdueOrderedByRemainingLag(t *testing.T) {
	q := New(3)
	// Both overdue at t=20; wf1 has more remaining work.
	q.Add(NewEntryDemoteOverdue(1, at(10), []plan.Req{{TTD: 2 * time.Second, Cum: 500}}), at(0))
	q.Add(NewEntryDemoteOverdue(2, at(10), []plan.Req{{TTD: 2 * time.Second, Cum: 50}}), at(0))
	e, _ := q.Best(at(20))
	if e.ID != 1 {
		t.Fatalf("Best = wf %d, want wf 1 (larger remaining lag)", e.ID)
	}
	// Work off wf1's lag below wf2's.
	for i := 0; i < 460; i++ {
		q.Scheduled(1, at(20))
	}
	e, _ = q.Best(at(20))
	if e.ID != 2 {
		t.Fatalf("Best after draining wf1 = wf %d, want wf 2", e.ID)
	}
}
