package cluster_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

func TestFailureRequeuesLostTasks(t *testing.T) {
	// One node, 2 map slots. 4 maps of 20s: wave 1 runs 0-20s. The node
	// fails at 10s and recovers at 30s: wave 1 is lost, so all 4 maps run
	// after recovery (30-50, 50-70), reduce 70-80.
	cfg := cluster.Config{
		Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		Failures: []cluster.Failure{{Node: 0, At: simtime.FromSeconds(10), Downtime: 20 * time.Second}},
	}
	w := workflow.NewBuilder("w").
		Job("j", 4, 1, 20*time.Second, 10*time.Second).
		MustBuild(0, simtime.FromSeconds(1000))
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Workflows[0].Finish, simtime.FromSeconds(80); got != want {
		t.Errorf("Finish = %v, want %v", got, want)
	}
	// 4 maps + 1 reduce finished, plus 2 lost attempts restarted.
	if res.TasksStarted != 7 {
		t.Errorf("TasksStarted = %d, want 7 (5 tasks + 2 retries)", res.TasksStarted)
	}
	// Busy time counts only executed slot-time: 2 lost 10s halves (20s),
	// 4 full maps (80s) = 100s map-busy; 10s reduce-busy.
	if res.MapBusy != 100*time.Second {
		t.Errorf("MapBusy = %v, want 100s", res.MapBusy)
	}
	if res.ReduceBusy != 10*time.Second {
		t.Errorf("ReduceBusy = %v, want 10s", res.ReduceBusy)
	}
}

func TestPermanentFailureUsesSurvivors(t *testing.T) {
	cfg := cluster.Config{
		Nodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		Failures: []cluster.Failure{{Node: 0, At: simtime.FromSeconds(5)}},
	}
	w := workflow.NewBuilder("w").
		Job("j", 4, 2, 10*time.Second, 10*time.Second).
		MustBuild(0, simtime.FromSeconds(1000))
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 alone: maps at 0-10 (one per node initially; node 0's dies at
	// 5s)... all work eventually lands on node 1's single slot pair.
	if !res.Workflows[0].Met {
		t.Error("workflow missed a generous deadline despite a surviving node")
	}
}

// TestAllNodesDeadIsStuck: when the only node dies for good with work left,
// Run must come back with the stuck error in every dispatch mode. Heartbeat
// mode with speculation on used to re-arm the dead node's tick for ever; now
// the node sleeps, the queue drains and Finish reports. A run that does not
// return fails here rather than at the package's -timeout.
func TestAllNodesDeadIsStuck(t *testing.T) {
	for _, tc := range []struct {
		name      string
		heartbeat time.Duration
		slowdown  float64
	}{
		{"instant", 0, 0},
		{"instant+speculation", 0, 1.5},
		{"heartbeat", 3 * time.Second, 0},
		{"heartbeat+speculation", 3 * time.Second, 1.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.Config{
				Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
				HeartbeatInterval:   tc.heartbeat,
				SpeculativeSlowdown: tc.slowdown,
				Failures:            []cluster.Failure{{Node: 0, At: simtime.FromSeconds(5)}},
			}
			w := workflow.NewBuilder("w").
				Job("j", 3, 1, 10*time.Second, 10*time.Second).
				MustBuild(0, simtime.FromSeconds(1000))
			sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Submit(w, nil); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := sim.Run()
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "stuck") {
					t.Errorf("Run error = %v, want stuck", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run did not return: the dead node is still ticking")
			}
		})
	}
}

func TestFailureConfigValidation(t *testing.T) {
	bad := []cluster.Failure{
		{Node: -1, At: 0},
		{Node: 5, At: 0},
		{Node: 0, At: -1},
		{Node: 0, At: 0, Downtime: -time.Second},
	}
	for i, f := range bad {
		cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
			Failures: []cluster.Failure{f}}
		if _, err := cluster.New(cfg, scheduler.NewFIFO(), nil); err == nil {
			t.Errorf("failure %d accepted: %+v", i, f)
		}
	}
}

// TestWOHASurvivesFailures runs the WOHA scheduler (with its schedulable
// counters and progress rollback) through randomized failure storms and
// checks everything still completes with balanced observer pairing.
func TestWOHASurvivesFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		var failures []cluster.Failure
		for n := 0; n < 4; n++ {
			if rng.Intn(2) == 0 {
				failures = append(failures, cluster.Failure{
					Node:     n,
					At:       simtime.FromSeconds(float64(5 + rng.Intn(120))),
					Downtime: time.Duration(10+rng.Intn(60)) * time.Second,
				})
			}
		}
		cfg := cluster.Config{
			Nodes: 5, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
			Noise: 0.1, Seed: int64(trial), Failures: failures,
		}
		obs := &countingObserver{}
		pol := core.NewScheduler(core.Options{Seed: int64(trial), PolicyName: "LPF"})
		sim, err := cluster.New(cfg, pol, obs)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := 0; i < 4; i++ {
			w := workflow.NewBuilder("w"+string(rune('0'+i))).
				Job("a", 3+rng.Intn(6), 1+rng.Intn(3), 15*time.Second, 25*time.Second).
				Job("b", 2+rng.Intn(4), 1, 10*time.Second, 20*time.Second, "a").
				MustBuild(simtime.FromSeconds(float64(rng.Intn(30))), simtime.FromSeconds(100000))
			total += w.TotalTasks()
			if err := sim.Submit(w, nil); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, w := range res.Workflows {
			if w.Finish == 0 {
				t.Fatalf("trial %d: %s never finished", trial, w.Name)
			}
		}
		// Attempts >= distinct tasks; observer start/finish pairing exact.
		if res.TasksStarted < total {
			t.Fatalf("trial %d: %d attempts < %d tasks", trial, res.TasksStarted, total)
		}
		if obs.started != obs.finished {
			t.Fatalf("trial %d: observer imbalance %d/%d", trial, obs.started, obs.finished)
		}
		if obs.running != 0 {
			t.Fatalf("trial %d: %d tasks still 'running'", trial, obs.running)
		}
	}
}
