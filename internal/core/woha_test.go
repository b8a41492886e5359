package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

func twoJob(t *testing.T, deadline time.Duration) *workflow.Workflow {
	t.Helper()
	return workflow.NewBuilder("w").
		Job("a", 4, 2, 10*time.Second, 20*time.Second).
		Job("b", 2, 1, 10*time.Second, 20*time.Second, "a").
		MustBuild(0, simtime.Epoch.Add(deadline))
}

func TestQueueKindString(t *testing.T) {
	tests := []struct {
		k    QueueKind
		want string
	}{
		{QueueDSL, "DSL"},
		{QueueBST, "BST"},
		{QueueNaive, "Naive"},
		{QueueKind(9), "QueueKind(9)"},
	}
	for _, tc := range tests {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.k, got, tc.want)
		}
	}
}

func TestSchedulerNameVariants(t *testing.T) {
	if got := NewScheduler(Options{}).Name(); got != "WOHA" {
		t.Errorf("Name = %q, want WOHA", got)
	}
	if got := NewScheduler(Options{PolicyName: "HLF"}).Name(); got != "WOHA-HLF" {
		t.Errorf("Name = %q, want WOHA-HLF", got)
	}
}

func TestQueueLenTracksLifecycle(t *testing.T) {
	cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	pol := NewScheduler(Options{Seed: 3})
	sim, err := cluster.New(cfg, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Submit(twoJob(t, time.Hour), nil); err != nil {
		t.Fatal(err)
	}
	if pol.QueueLen() != 0 {
		t.Errorf("QueueLen before Run = %d, want 0", pol.QueueLen())
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if pol.QueueLen() != 0 {
		t.Errorf("QueueLen after Run = %d, want 0 (workflow completed)", pol.QueueLen())
	}
}

// TestBackendsProduceIdenticalSchedules runs the same contended workload
// under the DSL, BST, and naive backends; because all three implement the
// same Algorithm 2 ordering with total tie-breaking, the resulting
// schedules must be identical.
func TestBackendsProduceIdenticalSchedules(t *testing.T) {
	cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	var finishes [][]simtime.Time
	for _, kind := range []QueueKind{QueueDSL, QueueBST, QueueNaive} {
		pol := NewScheduler(Options{Queue: kind, Seed: 5})
		sim, err := cluster.New(cfg, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			w := workflow.NewBuilder("w"+string(rune('0'+i))).
				Job("a", 3+i, 2, 10*time.Second, 15*time.Second).
				Job("b", 2, 1, 10*time.Second, 15*time.Second, "a").
				MustBuild(simtime.FromSeconds(float64(i)), simtime.FromSeconds(600+float64(100*i)))
			p, err := plan.GenerateCapped(w, cfg.TotalSlots(), priority.LPF{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Submit(w, p); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		var fs []simtime.Time
		for _, w := range res.Workflows {
			fs = append(fs, w.Finish)
		}
		finishes = append(finishes, fs)
	}
	for k := 1; k < len(finishes); k++ {
		for i := range finishes[0] {
			if finishes[k][i] != finishes[0][i] {
				t.Errorf("backend %d workflow %d finish %v != DSL %v", k, i, finishes[k][i], finishes[0][i])
			}
		}
	}
}

// TestOverdueDemotionSavesAchievableWorkflows constructs a zombie scenario:
// a large workflow whose deadline has already passed competes with a small
// achievable one. Under the paper-literal ordering the zombie starves the
// small workflow past its deadline; with demotion (the default) the small
// workflow is served first and meets it.
func TestOverdueDemotionSavesAchievableWorkflows(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	mk := func() []*workflow.Workflow {
		zombie := workflow.NewBuilder("zombie").
			Job("wide", 40, 10, 10*time.Second, 10*time.Second).
			MustBuild(0, simtime.FromSeconds(1)) // hopeless deadline
		small := workflow.NewBuilder("small").
			Job("j", 2, 1, 10*time.Second, 10*time.Second).
			MustBuild(simtime.FromSeconds(5), simtime.FromSeconds(45))
		return []*workflow.Workflow{zombie, small}
	}
	run := func(serveOverdueFirst bool) *cluster.Result {
		pol := NewScheduler(Options{Seed: 1, ServeOverdueFirst: serveOverdueFirst})
		sim, err := cluster.New(cfg, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range mk() {
			p, err := plan.GenerateCapped(w, cfg.TotalSlots(), priority.HLF{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Submit(w, p); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	literal := run(true)
	if literal.Workflows[1].Met {
		t.Error("paper-literal ordering met the small deadline; zombie scenario too weak")
	}
	demoted := run(false)
	if !demoted.Workflows[1].Met {
		t.Errorf("demotion failed to save the small workflow (finish %v, deadline %v)",
			demoted.Workflows[1].Finish, demoted.Workflows[1].Deadline)
	}
	// The zombie must still complete (best effort), just later.
	if demoted.Workflows[0].Finish == 0 {
		t.Error("zombie never finished under demotion")
	}
}
