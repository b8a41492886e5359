package scheduler_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

func mapOnly(name string, maps int, dur time.Duration, rel, deadline simtime.Time) *workflow.Workflow {
	return workflow.NewBuilder(name).
		Job("j", maps, 0, dur, 0).
		MustBuild(rel, deadline)
}

func runAll(t *testing.T, cfg cluster.Config, pol cluster.Policy, ws ...*workflow.Workflow) *cluster.Result {
	t.Helper()
	sim, err := cluster.New(cfg, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
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

func TestFIFOServesSubmissionOrder(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	w1 := mapOnly("first", 4, 10*time.Second, 0, simtime.FromSeconds(1000))
	w2 := mapOnly("second", 2, 10*time.Second, simtime.FromSeconds(1), simtime.FromSeconds(1000))
	res := runAll(t, cfg, scheduler.NewFIFO(), w1, w2)
	// FIFO: w1's 4 maps hog both slots until 20s; w2 runs 20-30s.
	if got := res.Workflows[0].Finish; got != simtime.FromSeconds(20) {
		t.Errorf("w1 Finish = %v, want 20s", got)
	}
	if got := res.Workflows[1].Finish; got != simtime.FromSeconds(30) {
		t.Errorf("w2 Finish = %v, want 30s", got)
	}
}

func TestFairSharesSlots(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	w1 := mapOnly("w1", 8, 10*time.Second, 0, simtime.FromSeconds(1000))
	w2 := mapOnly("w2", 8, 10*time.Second, 0, simtime.FromSeconds(1000))
	fifo := runAll(t, cfg, scheduler.NewFIFO(),
		mapOnly("w1", 8, 10*time.Second, 0, simtime.FromSeconds(1000)),
		mapOnly("w2", 8, 10*time.Second, 0, simtime.FromSeconds(1000)))
	fair := runAll(t, cfg, scheduler.NewFair(), w1, w2)

	// FIFO runs w1 to completion first: finishes at 40s and 80s. Fair
	// alternates slots (w1 grabs both on arrival, then one each): w1
	// finishes at 70s, w2 at 80s — neither workflow monopolizes.
	if got := fifo.Workflows[0].Finish; got != simtime.FromSeconds(40) {
		t.Errorf("FIFO w1 Finish = %v, want 40s", got)
	}
	if got := fair.Workflows[0].Finish; got != simtime.FromSeconds(70) {
		t.Errorf("Fair w1 Finish = %v, want 70s", got)
	}
	if got := fair.Workflows[1].Finish; got != simtime.FromSeconds(80) {
		t.Errorf("Fair w2 Finish = %v, want 80s", got)
	}
	if d := fair.Workflows[1].Finish.Sub(fair.Workflows[0].Finish); d > 10*time.Second {
		t.Errorf("Fair finish spread = %v, want <= one task", d)
	}
}

func TestEDFPrefersEarlierDeadline(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	// w1 submitted first but with a later deadline. w1 grabs both slots on
	// arrival (slots are non-preemptible); from the first free-up EDF gives
	// every slot to w2 until it finishes at 30s, then w1 resumes and ends
	// at 40s. FIFO would instead finish w1 at 20s and w2 at 40s.
	w1 := mapOnly("late-deadline", 4, 10*time.Second, 0, simtime.FromSeconds(500))
	w2 := mapOnly("tight-deadline", 4, 10*time.Second, 0, simtime.FromSeconds(35))
	res := runAll(t, cfg, scheduler.NewEDF(), w1, w2)
	if got := res.Workflows[1].Finish; got != simtime.FromSeconds(30) {
		t.Errorf("tight-deadline Finish = %v, want 30s", got)
	}
	if !res.Workflows[1].Met {
		t.Error("EDF missed the tight deadline it should favor")
	}
	if got := res.Workflows[0].Finish; got != simtime.FromSeconds(40) {
		t.Errorf("late-deadline Finish = %v, want 40s", got)
	}

	fifo := runAll(t, cfg, scheduler.NewFIFO(),
		mapOnly("late-deadline", 4, 10*time.Second, 0, simtime.FromSeconds(500)),
		mapOnly("tight-deadline", 4, 10*time.Second, 0, simtime.FromSeconds(35)))
	if fifo.Workflows[1].Met {
		t.Error("FIFO met the tight deadline; contention too weak to distinguish EDF")
	}
}

func TestEDFWithinWorkflowUsesActivationOrder(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}
	// Two independent root jobs in one workflow: the one listed first
	// activates at the same instant; ties break by job ID.
	w := workflow.NewBuilder("two-roots").
		Job("a", 1, 0, 10*time.Second, 0).
		Job("b", 1, 0, 10*time.Second, 0).
		MustBuild(0, simtime.FromSeconds(1000))
	res := runAll(t, cfg, scheduler.NewEDF(), w)
	if got := res.Workflows[0].Finish; got != simtime.FromSeconds(20) {
		t.Errorf("Finish = %v, want 20s", got)
	}
}

// TestFig2ResourceCapScenario reproduces the mechanism of the paper's Fig 2
// motivating example. Two deadline-constrained workflows (2-job chains of
// 4 maps + 4 reduces, 1s tasks, deadline 9.5s) compete with two large
// loose-deadline workflows on a 4-map-slot + 4-reduce-slot cluster.
//
// Plans generated against the full cluster are too optimistic: they demand
// no progress until 4s before the deadline, so the loose workflows win an
// even share of early slots and at least one tight workflow misses 9.5s.
// Resource-capped plans (binary-search minimum cap = 2 slots, simulated
// makespan 8s) demand progress almost immediately — and a 2-slot pace for
// each tight workflow is concurrently sustainable — so every deadline is
// met, exactly the Fig 2(b) outcome.
func TestFig2ResourceCapScenario(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 4, ReduceSlotsPerNode: 4}
	mkFlows := func() []*workflow.Workflow {
		tight := func(name string) *workflow.Workflow {
			return workflow.NewBuilder(name).
				Job("j1", 4, 4, time.Second, time.Second).
				Job("j2", 4, 4, time.Second, time.Second, "j1").
				MustBuild(0, simtime.FromSeconds(9.5))
		}
		loose := func(name string) *workflow.Workflow {
			return workflow.NewBuilder(name).
				Job("j", 24, 4, time.Second, time.Second).
				MustBuild(0, simtime.FromSeconds(120))
		}
		return []*workflow.Workflow{tight("W1"), tight("W2"), loose("W3"), loose("W4")}
	}

	runWith := func(capped bool) *cluster.Result {
		pol := core.NewScheduler(core.Options{Seed: 1})
		sim, err := cluster.New(cfg, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range mkFlows() {
			var p *plan.Plan
			if capped {
				p, err = plan.GenerateCapped(w, cfg.TotalSlots(), priority.HLF{})
			} else {
				p, err = plan.GenerateForPolicy(w, cfg.TotalSlots(), priority.HLF{})
			}
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

	uncapped := runWith(false)
	if uncapped.DeadlineMisses() == 0 {
		t.Errorf("uncapped plans met every deadline; Fig 2 predicts at least one miss (finishes: %v, %v)",
			uncapped.Workflows[0].Finish, uncapped.Workflows[1].Finish)
	}

	capped := runWith(true)
	if got := capped.DeadlineMisses(); got != 0 {
		for _, w := range capped.Workflows {
			t.Logf("%s: finish %v deadline %v", w.Name, w.Finish, w.Deadline)
		}
		t.Errorf("capped plans missed %d deadlines, want 0", got)
	}
	// The capped run must also pick a genuinely smaller cap for the tight
	// workflows.
	p, err := plan.GenerateCapped(mkFlows()[0], cfg.TotalSlots(), priority.HLF{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cap >= cfg.TotalSlots() {
		t.Errorf("capped plan used cap %d, want < %d", p.Cap, cfg.TotalSlots())
	}
}

func TestWOHAFollowsPlanRanks(t *testing.T) {
	// Two independent jobs; the plan ranks job "b" first, so with a single
	// map slot b must run before a despite a's lower job ID.
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}
	w := workflow.NewBuilder("ranked").
		Job("a", 1, 0, 10*time.Second, 0).
		Job("b", 1, 0, 10*time.Second, 0).
		MustBuild(0, simtime.FromSeconds(1000))
	p := &plan.Plan{Policy: "manual", Ranks: []int{1, 0}, TotalTasks: 2}

	obs := &orderObserver{}
	pol := core.NewScheduler(core.Options{Seed: 3})
	sim, err := cluster.New(cfg, pol, obs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Submit(w, p); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(obs.order) != 2 || obs.order[0] != 1 || obs.order[1] != 0 {
		t.Errorf("task start order = %v, want [1 0] (plan rank order)", obs.order)
	}
}

type orderObserver struct {
	order []workflow.JobID
}

func (o *orderObserver) TaskStarted(_ simtime.Time, _ *cluster.WorkflowState, job workflow.JobID, _ cluster.SlotType, _ time.Duration) {
	o.order = append(o.order, job)
}

func (o *orderObserver) TaskFinished(simtime.Time, *cluster.WorkflowState, workflow.JobID, cluster.SlotType) {
}

func TestWOHAWithoutPlanStillCompletes(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	pol := core.NewScheduler(core.Options{Seed: 4})
	sim, err := cluster.New(cfg, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := workflow.NewBuilder("planless").
		Job("a", 3, 1, time.Second, time.Second).
		Job("b", 2, 1, time.Second, time.Second, "a").
		MustBuild(0, simtime.FromSeconds(1000))
	if err := sim.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Workflows[0].Met {
		t.Error("planless workflow missed a generous deadline")
	}
}

func TestSchedulerNames(t *testing.T) {
	names := map[string]cluster.Policy{
		"FIFO":     scheduler.NewFIFO(),
		"Fair":     scheduler.NewFair(),
		"EDF":      scheduler.NewEDF(),
		"WOHA":     core.NewScheduler(core.Options{}),
		"WOHA-LPF": core.NewScheduler(core.Options{PolicyName: "LPF"}),
	}
	for want, pol := range names {
		if got := pol.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

// TestAllPoliciesCompleteRandomWorkloads is a cross-policy integration
// property: every policy must run arbitrary workloads to completion with
// exact task conservation.
func TestAllPoliciesCompleteRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := cluster.Config{Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Noise: 0.1, Seed: 9}
	mkPolicies := func() map[string]cluster.Policy {
		return map[string]cluster.Policy{
			"FIFO":       scheduler.NewFIFO(),
			"Fair":       scheduler.NewFair(),
			"EDF":        scheduler.NewEDF(),
			"WOHA-DSL":   core.NewScheduler(core.Options{Queue: core.QueueDSL, Seed: 11}),
			"WOHA-BST":   core.NewScheduler(core.Options{Queue: core.QueueBST}),
			"WOHA-Naive": core.NewScheduler(core.Options{Queue: core.QueueNaive}),
		}
	}

	var flows []*workflow.Workflow
	totalTasks := 0
	for i := 0; i < 8; i++ {
		b := workflow.NewBuilder("wf" + string(rune('A'+i)))
		n := 1 + rng.Intn(8)
		names := make([]string, n)
		for j := 0; j < n; j++ {
			names[j] = "job" + string(rune('a'+j))
			var after []string
			for k := 0; k < j; k++ {
				if rng.Intn(3) == 0 {
					after = append(after, names[k])
				}
			}
			b.Job(names[j], 1+rng.Intn(10), rng.Intn(4),
				time.Duration(1+rng.Intn(20))*time.Second,
				time.Duration(1+rng.Intn(40))*time.Second, after...)
		}
		w := b.MustBuild(simtime.FromSeconds(float64(rng.Intn(60))), simtime.FromSeconds(1e7))
		totalTasks += w.TotalTasks()
		flows = append(flows, w)
	}

	for name, pol := range mkPolicies() {
		sim, err := cluster.New(cfg, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range flows {
			var p *plan.Plan
			if ws, ok := pol.(*core.Scheduler); ok && ws != nil {
				p, err = plan.GenerateCapped(w, cfg.TotalSlots(), priority.LPF{})
				if err != nil {
					t.Fatalf("%s: plan: %v", name, err)
				}
			}
			if err := sim.Submit(w, p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if res.TasksStarted != totalTasks {
			t.Errorf("%s: started %d tasks, want %d", name, res.TasksStarted, totalTasks)
		}
		for _, w := range res.Workflows {
			if w.Finish == 0 {
				t.Errorf("%s: workflow %s never finished", name, w.Name)
			}
		}
	}
}
