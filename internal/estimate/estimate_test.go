package estimate_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// mispredicted builds a workflow whose configured estimates are badly wrong
// relative to the durations the simulator will actually run (the "actual"
// spec). Returns (plannerView, actual).
func mispredicted() (*workflow.Workflow, *workflow.Workflow) {
	actual := workflow.NewBuilder("etl").
		Job("extract", 8, 4, 20*time.Second, 60*time.Second).
		Job("aggregate", 6, 2, 30*time.Second, 90*time.Second, "extract").
		MustBuild(0, simtime.FromSeconds(3600))
	planner := actual.Clone()
	// The operator guessed 4x too low on reduces and 2x too high on maps.
	for i := range planner.Jobs {
		planner.Jobs[i].MapTime *= 2
		planner.Jobs[i].ReduceTime /= 4
	}
	return planner, actual
}

func runRecorded(t *testing.T, w *workflow.Workflow, rec *estimate.Recorder) *cluster.Result {
	t.Helper()
	cfg := cluster.Config{Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Noise: 0.1, Seed: 5}
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), rec)
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
	return res
}

func TestRecorderLearnsMedians(t *testing.T) {
	_, actual := mispredicted()
	rec := estimate.NewRecorder()
	runRecorded(t, actual, rec)

	if got := rec.Samples("extract", cluster.MapSlot); got != 8 {
		t.Errorf("extract map samples = %d, want 8", got)
	}
	if got := rec.Samples("aggregate", cluster.ReduceSlot); got != 2 {
		t.Errorf("aggregate reduce samples = %d, want 2", got)
	}
	if _, ok := rec.Estimate("ghost", cluster.MapSlot); ok {
		t.Error("estimate for unknown job reported ok")
	}

	// Medians must land within the 10% noise band of the true durations.
	d, ok := rec.Estimate("extract", cluster.MapSlot)
	if !ok {
		t.Fatal("no estimate for extract maps")
	}
	lo, hi := 18*time.Second, 22*time.Second
	if d < lo || d > hi {
		t.Errorf("extract map median = %v, want within [%v, %v]", d, lo, hi)
	}
}

func TestApplyCorrectsPlannerView(t *testing.T) {
	planner, actual := mispredicted()
	rec := estimate.NewRecorder()
	runRecorded(t, actual, rec)

	planner, updated := rec.Apply(planner)
	if updated != 4 {
		t.Errorf("Apply updated %d estimates, want 4", updated)
	}
	for i := range planner.Jobs {
		pj, aj := &planner.Jobs[i], &actual.Jobs[i]
		if ratio := float64(pj.MapTime) / float64(aj.MapTime); ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s map estimate %v vs actual %v", pj.Name, pj.MapTime, aj.MapTime)
		}
		if ratio := float64(pj.ReduceTime) / float64(aj.ReduceTime); ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s reduce estimate %v vs actual %v", pj.Name, pj.ReduceTime, aj.ReduceTime)
		}
	}
}

// TestLearningImprovesPlans closes the paper's feedback loop on a recurring
// workflow: plans from mispredicted estimates describe the workflow's
// resource needs badly; after one observed recurrence, learned estimates
// bring the plan's simulated makespan close to the truth.
func TestLearningImprovesPlans(t *testing.T) {
	planner, actual := mispredicted()

	truth, err := plan.GenerateForPolicy(actual, 12, priority.LPF{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := plan.GenerateForPolicy(planner, 12, priority.LPF{})
	if err != nil {
		t.Fatal(err)
	}

	rec := estimate.NewRecorder()
	runRecorded(t, actual, rec)
	relearned, _ := rec.Apply(planner)
	learned, err := plan.GenerateForPolicy(relearned, 12, priority.LPF{})
	if err != nil {
		t.Fatal(err)
	}

	naiveErr := absDiff(naive.Makespan, truth.Makespan)
	learnedErr := absDiff(learned.Makespan, truth.Makespan)
	if learnedErr >= naiveErr {
		t.Errorf("learned makespan error %v not below naive %v (truth %v, naive %v, learned %v)",
			learnedErr, naiveErr, truth.Makespan, naive.Makespan, learned.Makespan)
	}
	if float64(learnedErr) > 0.15*float64(truth.Makespan) {
		t.Errorf("learned makespan %v still far from truth %v", learned.Makespan, truth.Makespan)
	}
}

func absDiff(a, b time.Duration) time.Duration {
	if a > b {
		return a - b
	}
	return b - a
}

// TestRecurringWorkflowLearningEndToEnd runs three recurrences under WOHA:
// the first with mispredicted plans, later ones with learned plans, all
// sharing one recorder.
func TestRecurringWorkflowLearningEndToEnd(t *testing.T) {
	planner, actual := mispredicted()
	instances := workload.Recur(actual, 3, 10*time.Minute)

	rec := estimate.NewRecorder()
	cfg := cluster.Config{Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Noise: 0.1, Seed: 7}
	pol := core.NewScheduler(core.Options{Seed: 7, PolicyName: "LPF"})
	sim, err := cluster.New(cfg, pol, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range instances {
		view := planner
		if i > 0 {
			// Later submissions would re-Apply the recorder; here we just
			// verify both plan sources submit cleanly.
			view, _ = rec.Apply(view)
		}
		p, err := plan.GenerateCapped(view, cfg.TotalSlots(), priority.LPF{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Submit(inst, p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Workflows {
		if !w.Met {
			t.Errorf("%s missed its deadline", w.Name)
		}
	}
}

func TestRecurNaming(t *testing.T) {
	w := workflow.NewBuilder("daily").
		Job("j", 1, 1, time.Second, time.Second).
		MustBuild(simtime.FromSeconds(100), simtime.FromSeconds(700))
	insts := workload.Recur(w, 3, time.Hour)
	if len(insts) != 3 {
		t.Fatalf("instances = %d", len(insts))
	}
	wantRel := []float64{100, 3700, 7300}
	for i, inst := range insts {
		if inst.Name != "daily."+string(rune('1'+i)) {
			t.Errorf("instance %d name = %q", i, inst.Name)
		}
		if inst.Release.Seconds() != wantRel[i] {
			t.Errorf("instance %d release = %v, want %vs", i, inst.Release, wantRel[i])
		}
		if inst.RelativeDeadline() != w.RelativeDeadline() {
			t.Errorf("instance %d relative deadline changed", i)
		}
	}
}
