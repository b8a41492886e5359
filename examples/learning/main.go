// Estimation learning: closing the feedback loop the paper assumes away.
// WOHA plans are only as good as the per-task duration estimates behind
// them ("estimations of task execution times can be acquired from logs of
// historical executions"). This example submits a recurring pipeline whose
// operator-configured estimates are badly wrong, records the first
// recurrence's actual task durations, and regenerates the plan from the
// learned medians — showing how far the plan's predicted makespan moves
// toward the truth.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

func main() {
	// The pipeline as it actually behaves.
	actual := workflow.NewBuilder("hourly-report").
		Job("extract", 24, 6, 30*time.Second, 2*time.Minute).
		Job("enrich", 12, 4, 45*time.Second, 90*time.Second, "extract").
		Job("report", 8, 2, 20*time.Second, 3*time.Minute, "enrich").
		MustBuild(0, simtime.Epoch.Add(time.Hour))

	// The operator's configuration guessed map times 2x too high and
	// reduce times 3x too low.
	configured := actual.Clone()
	for i := range configured.Jobs {
		configured.Jobs[i].MapTime *= 2
		configured.Jobs[i].ReduceTime /= 3
	}

	const slots = 24
	truth, err := plan.GenerateForPolicy(actual, slots, priority.LPF{})
	if err != nil {
		log.Fatal(err)
	}
	naive, err := plan.GenerateForPolicy(configured, slots, priority.LPF{})
	if err != nil {
		log.Fatal(err)
	}

	// Run one recurrence with an estimate.Recorder attached; the simulator
	// perturbs durations by ±15% to stand in for real variance.
	rec := estimate.NewRecorder()
	sim, err := cluster.New(cluster.Config{
		Nodes: 8, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Noise: 0.15, Seed: 11,
	}, scheduler.NewFIFO(), rec)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Submit(actual, nil); err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		log.Fatal(err)
	}

	// Feed the learned medians back into the configured view and replan.
	relearned, updated := rec.Apply(configured)
	learned, err := plan.GenerateForPolicy(relearned, slots, priority.LPF{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("plan makespan predictions for the hourly-report pipeline:")
	fmt.Printf("  true durations:        %v\n", truth.Makespan.Round(time.Second))
	fmt.Printf("  operator estimates:    %v  (error %+.0f%%)\n",
		naive.Makespan.Round(time.Second), pctErr(naive.Makespan, truth.Makespan))
	fmt.Printf("  after one recurrence:  %v  (error %+.0f%%, %d estimates learned)\n",
		learned.Makespan.Round(time.Second), pctErr(learned.Makespan, truth.Makespan), updated)
	fmt.Println()
	fmt.Println("accurate plans mean accurate progress requirements — the scheduler only")
	fmt.Println("protects a deadline it can see coming.")
}

func pctErr(got, want time.Duration) float64 {
	return 100 * (float64(got) - float64(want)) / float64(want)
}
