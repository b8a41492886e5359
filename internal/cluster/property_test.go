package cluster_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

func randomFlows(rng *rand.Rand, n int) []*workflow.Workflow {
	var flows []*workflow.Workflow
	for i := 0; i < n; i++ {
		b := workflow.NewBuilder("w" + string(rune('a'+i)))
		jobs := 1 + rng.Intn(5)
		names := make([]string, jobs)
		for j := 0; j < jobs; j++ {
			names[j] = "j" + string(rune('0'+j))
			var after []string
			if j > 0 && rng.Intn(2) == 0 {
				after = append(after, names[j-1])
			}
			b.Job(names[j], 1+rng.Intn(8), rng.Intn(4),
				time.Duration(5+rng.Intn(40))*time.Second,
				time.Duration(10+rng.Intn(80))*time.Second, after...)
		}
		flows = append(flows, b.MustBuild(
			simtime.FromSeconds(float64(rng.Intn(60))), simtime.FromSeconds(1e7)))
	}
	return flows
}

// TestHeartbeatModeBoundedDelay: for any workload, heartbeat-driven dispatch
// can never finish earlier than instant dispatch, and conservation holds in
// both modes.
func TestHeartbeatModeBoundedDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		flows := randomFlows(rng, 1+rng.Intn(4))
		total := 0
		for _, w := range flows {
			total += w.TotalTasks()
		}
		runMode := func(hb time.Duration) *cluster.Result {
			cfg := cluster.Config{
				Nodes: 3, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
				HeartbeatInterval: hb,
			}
			sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range flows {
				if err := sim.Submit(w, nil); err != nil {
					t.Fatal(err)
				}
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		instant := runMode(0)
		heartbeat := runMode(3 * time.Second)
		if instant.TasksStarted != total || heartbeat.TasksStarted != total {
			t.Fatalf("trial %d: conservation broken: %d/%d of %d",
				trial, instant.TasksStarted, heartbeat.TasksStarted, total)
		}
		if heartbeat.Makespan < instant.Makespan {
			t.Errorf("trial %d: heartbeat makespan %v beat instant %v",
				trial, heartbeat.Makespan, instant.Makespan)
		}
		// Busy slot-time is identical: the same tasks run for the same
		// durations; only their start times shift.
		if heartbeat.MapBusy != instant.MapBusy || heartbeat.ReduceBusy != instant.ReduceBusy {
			t.Errorf("trial %d: busy time changed across dispatch modes", trial)
		}
	}
}

// TestUtilizationNeverExceedsOne across random configurations and features.
func TestUtilizationNeverExceedsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		cfg := cluster.Config{
			Nodes:              1 + rng.Intn(5),
			MapSlotsPerNode:    1 + rng.Intn(3),
			ReduceSlotsPerNode: 1 + rng.Intn(2),
			Noise:              rng.Float64() * 0.5,
			Seed:               int64(trial),
		}
		if rng.Intn(2) == 0 {
			cfg.SpeculativeSlowdown = 1.2
		}
		sim, err := cluster.New(cfg, scheduler.NewFair(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range randomFlows(rng, 1+rng.Intn(3)) {
			if err := sim.Submit(w, nil); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for name, u := range map[string]float64{
			"overall": res.Utilization(),
			"map":     res.MapUtilization(),
			"reduce":  res.ReduceUtilization(),
		} {
			if u < 0 || u > 1+1e-9 {
				t.Errorf("trial %d: %s utilization %v outside [0,1]", trial, name, u)
			}
		}
	}
}
