package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// loadChecker compares a member's maintained load view with the walk it
// replaced. It is hooked in as the member's Observer, so it runs inside the
// handlers, at every task start and finish (a lost or killed attempt's
// included), and from the router, at every arrival, for every member.
type loadChecker struct {
	t      *testing.T
	name   string
	sim    *cluster.Simulator
	checks int
	// seen collects the kinds of state the comparison was made in.
	seen struct{ downNode, twin, requeued bool }
	last cluster.Load
}

func (c *loadChecker) check(where string) {
	got, want := c.sim.LoadView(), c.sim.LoadWalk()
	c.checks++
	if got != want {
		c.t.Fatalf("%s, %s: LoadView %+v, the walk finds %+v", c.name, where, got, want)
	}
	if d := got.FreeMaps + got.FreeReduces - c.last.FreeMaps - c.last.FreeReduces; d < -1 || d > 1 {
		c.seen.downNode = true // several slots at once: a node went down or came back
	}
	if got.PendingTasks > c.last.PendingTasks && got.ActiveWorkflows == c.last.ActiveWorkflows {
		c.seen.requeued = true
	}
	c.last = got
}

func (c *loadChecker) TaskStarted(now simtime.Time, ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, dur time.Duration) {
	// A duplicate attempt starts a task that is already running.
	if l := c.sim.LoadView(); l.RunningTasks == c.last.RunningTasks && l.FreeMaps+l.FreeReduces < c.last.FreeMaps+c.last.FreeReduces {
		c.seen.twin = true
	}
	c.check(fmt.Sprintf("task start at %v", now))
}

func (c *loadChecker) TaskFinished(now simtime.Time, ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType) {
	c.check(fmt.Sprintf("task finish at %v", now))
}

// checkingRouter is least-loaded routing that first holds every member's
// view to its walk.
type checkingRouter struct {
	federation.LeastLoaded
	members []*loadChecker
}

func (r *checkingRouter) Route(w *workflow.Workflow, p *plan.Plan, snaps []federation.Snapshot) int {
	for _, m := range r.members {
		m.check(fmt.Sprintf("routing %s", w.Name))
	}
	return r.LeastLoaded.Route(w, p, snaps)
}

// everyThird admits all but every third submission, which it defers once and
// then rejects.
type everyThird struct {
	n        int
	deferred map[*workflow.Workflow]bool
	rejected *bool
}

func (everyThird) Name() string { return "every-third" }

func (a *everyThird) Decide(w *workflow.Workflow, _ *plan.Plan, now simtime.Time) admission.Decision {
	if a.deferred[w] {
		*a.rejected = true
		return admission.Decision{Verdict: admission.Reject, Reason: "test"}
	}
	if a.n++; a.n%3 == 0 {
		a.deferred[w] = true
		return admission.Decision{Verdict: admission.Defer, RetryAt: now.Add(7 * time.Second)}
	}
	return admission.Decision{Verdict: admission.Admit}
}

func (everyThird) Complete(*workflow.Workflow, simtime.Time) {}

// TestLoadViewMatchesWalk runs a three-member federation — heartbeat mode
// with speculation and failures, instant dispatch behind an admission door
// that defers and rejects, heartbeat mode with a node that never comes back —
// and requires the maintained LoadView to equal the old walk at every task
// start, task finish and routing decision.
func TestLoadViewMatchesWalk(t *testing.T) {
	base := cluster.Config{
		Nodes: 3, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		Noise: 0.2, StragglerProb: 0.2, StragglerFactor: 4, Seed: 9,
	}
	cfgs := []cluster.Config{base, base, base}
	cfgs[0].HeartbeatInterval = 3 * time.Second
	cfgs[0].SpeculativeSlowdown = 1.5
	cfgs[0].Failures = []cluster.Failure{
		{Node: 0, At: simtime.FromSeconds(45), Downtime: 40 * time.Second},
		{Node: 2, At: simtime.FromSeconds(130), Downtime: 25 * time.Second},
	}
	cfgs[1].SpeculativeSlowdown = 1.5
	cfgs[2].HeartbeatInterval = 4 * time.Second
	cfgs[2].SubmitterOverhead = 2 * time.Second
	cfgs[2].Failures = []cluster.Failure{{Node: 1, At: simtime.FromSeconds(60)}}

	var rejected bool
	router := &checkingRouter{}
	sims := make([]*cluster.Simulator, len(cfgs))
	for i, cfg := range cfgs {
		c := &loadChecker{t: t, name: fmt.Sprintf("member %d", i)}
		sim, err := cluster.New(cfg, scheduler.NewEDF(), c)
		if err != nil {
			t.Fatal(err)
		}
		c.sim, c.last = sim, sim.LoadView()
		sims[i] = sim
		router.members = append(router.members, c)
	}
	sims[1].SetAdmission(&everyThird{deferred: map[*workflow.Workflow]bool{}, rejected: &rejected})

	fed, err := federation.New(federation.Config{Router: router}, sims)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		rel := simtime.FromSeconds(float64(i * 11))
		w := workflow.NewBuilder(fmt.Sprintf("w%d", i)).
			Job("a", 5+i%4, 2, 20*time.Second, 30*time.Second).
			Job("b", 3, 1+i%2, 15*time.Second, 25*time.Second, "a").
			MustBuild(rel, rel.Add(30*time.Minute))
		if err := fed.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fed.Run(); err != nil {
		t.Fatal(err)
	}
	var seen struct{ downNode, twin, requeued bool }
	for _, m := range router.members {
		if m.checks < 100 {
			t.Errorf("%s: only %d comparisons", m.name, m.checks)
		}
		if l := m.sim.LoadView(); l.ActiveWorkflows != 0 || l.RunningTasks != 0 || l.PendingTasks != 0 || l.Backlog != 0 {
			t.Errorf("%s: drained load %+v, want nothing owed", m.name, l)
		}
		seen.downNode = seen.downNode || m.seen.downNode
		seen.twin = seen.twin || m.seen.twin
		seen.requeued = seen.requeued || m.seen.requeued
	}
	if !seen.downNode || !seen.twin || !seen.requeued || !rejected {
		t.Errorf("the run never compared across a failure (%v), a duplicate attempt (%v), a requeue (%v) or a rejection (%v)",
			seen.downNode, seen.twin, seen.requeued, rejected)
	}
}
