package live_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
)

// TestHealthCrossLayoutSnapshots drives concurrent heartbeats through the
// health tracker on the single-mutex referee and on the sharded tracker at
// one shard and at four, and demands the referee's slack snapshots from both
// at every quiescent point. The script alternates two barriered phases per
// round — all trackers report completions, then all trackers request work —
// so the aggregate scheduled/completed counts at each barrier are layout- and
// interleaving-independent even though the heartbeats inside a phase race.
func TestHealthCrossLayoutSnapshots(t *testing.T) {
	const (
		trackers = 4
		deadline = 100 * time.Hour // far out: wall-clock jitter must not leak into tardiness
	)
	// Snapshot instants approach the deadline so plan requirements engage:
	// round r reads ttd = 600s - r*50s.
	snapAt := func(round int) simtime.Time {
		return simtime.Epoch.Add(deadline - 600*time.Second + time.Duration(round)*50*time.Second)
	}

	run := func(l layout) []*obs.HealthSnapshot {
		o := obs.New(obs.NewRegistry(), nil)
		// Interval effectively infinite: only the explicit SnapshotAt calls
		// below publish, keeping the comparison deterministic.
		h := o.EnableHealth(obs.HealthConfig{Interval: 1000 * time.Hour})
		cfg := fastConfig()
		cfg.Obs = o
		c := l.build(t, cfg, scheduler.NewFIFO())
		for _, name := range []string{"w0", "w1", "w2", "w3"} {
			w := chainFlow(name, 0, deadline)
			p, err := plan.GenerateCapped(w, 12, priority.LPF{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(w, p); err != nil {
				t.Fatal(err)
			}
		}

		held := make([][]live.TaskID, trackers)
		var snaps []*obs.HealthSnapshot
		for round := 1; ; round++ {
			if round > 1000 {
				t.Fatalf("%s: scripted drive did not converge", l.name)
			}
			// Phase A: every tracker reports its completions, concurrently.
			outstanding := 0
			var wg sync.WaitGroup
			for tr := 0; tr < trackers; tr++ {
				outstanding += len(held[tr])
				wg.Add(1)
				go func(tr int) {
					defer wg.Done()
					c.DeliverHeartbeat(live.Heartbeat{Tracker: tr, Completed: held[tr]})
				}(tr)
			}
			wg.Wait()
			// Phase B: every tracker requests work, concurrently. The pending
			// set is frozen (completions all landed in phase A), so the
			// multiset of tasks handed out is deterministic.
			outs := make([][]live.Assignment, trackers)
			for tr := 0; tr < trackers; tr++ {
				wg.Add(1)
				go func(tr int) {
					defer wg.Done()
					outs[tr] = c.DeliverHeartbeat(live.Heartbeat{Tracker: tr, FreeMaps: 2, FreeReds: 1})
				}(tr)
			}
			wg.Wait()
			assigned := 0
			for tr := range outs {
				held[tr] = held[tr][:0]
				for _, a := range outs[tr] {
					held[tr] = append(held[tr], a.ID)
				}
				assigned += len(outs[tr])
			}
			snaps = append(snaps, h.SnapshotAt(snapAt(round)))
			if assigned == 0 && outstanding == 0 {
				return snaps
			}
		}
	}

	ls := layouts(1, 4)
	want := run(ls[0])
	for _, l := range ls[1:] {
		got := run(l)
		if len(got) != len(want) {
			t.Fatalf("%s: rounds diverged: reference %d, %s %d", l.name, len(want), l.name, len(got))
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("%s: round %d snapshots differ:\nreference %+v\ngot       %+v", l.name, i+1, want[i], got[i])
			}
		}
	}
	// The drive must have produced non-trivial health data, not vacuously
	// equal empty snapshots.
	final := want[len(want)-1]
	if len(final.Workflows) != 4 {
		t.Fatalf("final snapshot has %d workflows, want 4", len(final.Workflows))
	}
	for _, row := range final.Workflows {
		if !row.Done || row.Completed != row.Total || !row.HasPlan {
			t.Errorf("final row = %+v, want done with all tasks completed and a plan", row)
		}
	}
}
