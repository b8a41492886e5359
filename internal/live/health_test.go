package live_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// TestHealthCrossLayoutSnapshots feeds a health tracker from the simulator
// and another from the master, replayed under the stepped clock, and demands
// the simulator's slack snapshot from the master every 20 virtual seconds:
// at each the simulator has run every event up to the snapshot instant and
// the master has been served every one of them. The deadlines are close
// enough for the plans' requirements to engage.
func TestHealthCrossLayoutSnapshots(t *testing.T) {
	spec, err := experiments.SchedulerByName("WOHA-LPF")
	if err != nil {
		t.Fatal(err)
	}
	var flows []*workflow.Workflow
	for _, name := range []string{"w0", "w1", "w2", "w3"} {
		flows = append(flows, chainFlow(name, 0, 4*time.Minute))
	}
	d := newDifferential(t, scenario{nodes: 4, spec: spec, flows: flows}, true)
	var last *obs.HealthSnapshot
	engaged := false
	for at := simtime.Epoch; ; at = at.Add(20 * time.Second) {
		d.stepTo(at)
		want, got := d.simObs.Health().SnapshotAt(at), d.liveObs.Health().SnapshotAt(at)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("snapshots at %v differ:\nsimulator %+v\nlive      %+v", at, want, got)
		}
		for _, row := range want.Workflows {
			engaged = engaged || row.Required > 0
		}
		last = want
		if _, ok := d.sim.Peek(); !ok {
			break
		}
	}
	d.finish()
	if !engaged {
		t.Error("no snapshot had a plan requirement in force")
	}
	if len(last.Workflows) != 4 {
		t.Fatalf("final snapshot has %d workflows, want 4", len(last.Workflows))
	}
	for _, row := range last.Workflows {
		if !row.Done || row.Completed != row.Total || !row.HasPlan {
			t.Errorf("final row = %+v, want done with all tasks completed and a plan", row)
		}
	}
}

// TestHealthUnderConcurrentHeartbeats feeds the health tracker from
// concurrent heartbeats and demands, at every quiescent point, the snapshot
// the same script produces served one heartbeat at a time. The script
// alternates two barriered phases per round — all trackers report
// completions, then all request work — so under FIFO the tasks handed out,
// and so the counts at each barrier, do not depend on how the heartbeats
// inside a phase interleave. The clock is stepped, and stays at the epoch.
func TestHealthUnderConcurrentHeartbeats(t *testing.T) {
	const (
		trackers = 4
		deadline = 100 * time.Hour
	)
	// Snapshot instants approach the deadline so plan requirements engage:
	// round r reads ttd = 600s - r*50s.
	snapAt := func(round int) simtime.Time {
		return simtime.Epoch.Add(deadline - 600*time.Second + time.Duration(round)*50*time.Second)
	}
	run := func(concurrent bool) []*obs.HealthSnapshot {
		o := obs.New(obs.NewRegistry(), nil)
		// Interval effectively infinite: only the explicit SnapshotAt calls
		// below publish, keeping the comparison deterministic.
		h := o.EnableHealth(obs.HealthConfig{Interval: 1000 * time.Hour})
		cfg := fastConfig()
		cfg.Obs = o
		c, err := live.New(cfg, scheduler.NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		c.StepClock()
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
		// phase runs beat for every tracker, all at once or one by one.
		phase := func(beat func(tr int)) {
			var wg sync.WaitGroup
			for tr := 0; tr < trackers; tr++ {
				if !concurrent {
					beat(tr)
					continue
				}
				wg.Add(1)
				go func(tr int) {
					defer wg.Done()
					beat(tr)
				}(tr)
			}
			wg.Wait()
		}
		held := make([][]live.TaskID, trackers)
		var snaps []*obs.HealthSnapshot
		for round := 1; ; round++ {
			if round > 1000 {
				t.Fatal("scripted drive did not converge")
			}
			outstanding := 0
			for _, ids := range held {
				outstanding += len(ids)
			}
			phase(func(tr int) { c.DeliverHeartbeat(live.Heartbeat{Tracker: tr, Completed: held[tr]}) })
			outs := make([][]live.Assignment, trackers)
			phase(func(tr int) {
				outs[tr] = c.DeliverHeartbeat(live.Heartbeat{Tracker: tr, FreeMaps: 2, FreeReds: 1})
			})
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
	want, got := run(false), run(true)
	if len(got) != len(want) {
		t.Fatalf("rounds diverged: serial %d, concurrent %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("round %d snapshots differ:\nserial     %+v\nconcurrent %+v", i+1, want[i], got[i])
		}
	}
	final := want[len(want)-1]
	for _, row := range final.Workflows {
		if !row.Done || row.Completed != row.Total || !row.HasPlan {
			t.Errorf("final row = %+v, want done with all tasks completed and a plan", row)
		}
	}
}
