package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// front_door is the path a workflow actually travels — submit → plan → admit
// → route → schedule → complete — and the only workload that covers it. Many
// small workflows (task counts an eighth of the trace's) make the front door,
// not the member simulators, dominate the pass.
const (
	frontMembers     = 4
	frontMemberNodes = 40 // × (2 map + 2 reduce) = 80 + 80 slots per member
	frontScale       = 128
	planCacheSize    = 65536
)

type frontDoor struct {
	c    *corpus
	spec corpusSpec
}

func setupFrontDoor(seed int64, smoke bool) (instance, error) {
	f := &frontDoor{spec: corpusSpec{
		scale:    frontScale,
		trace:    trace.DefaultParams().Scale(1.0, 0.125),
		slots:    frontMembers * frontMemberNodes * 4,
		windowed: true,
		refSlots: frontMemberNodes * 4,
	}}
	if smoke {
		f.spec.scale = 1
	}
	var err error
	f.c, err = f.spec.generate(seed)
	return f, err
}

func (f *frontDoor) describe(w io.Writer) {
	describeCorpus(w, f.c, fmt.Sprintf("%d members × %d slots, scale %d", frontMembers, frontMemberNodes*4, f.spec.scale))
}

func (f *frontDoor) extras() (map[string]float64, error) {
	return plannerExtras(f.c.flows, frontMemberCaps())
}

func frontMemberConfig(seed int64) cluster.Config {
	return cluster.Config{Nodes: frontMemberNodes, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2, Seed: seed}
}

func frontMemberCaps() plan.Caps {
	return plan.Caps{Maps: frontMemberNodes * 2, Reduces: frontMemberNodes * 2}
}

func newFrontAdmission() (admission.Controller, error) {
	return admission.New(admission.Config{
		Cluster: frontMemberCaps(),
		Mode:    admission.ModeFeasible,
		Margin:  experiments.PlanMargin,
	})
}

func newWOHA(seed int64, pol priority.Policy) cluster.Policy {
	return core.NewScheduler(core.Options{Seed: seed, PolicyName: pol.Name()})
}

func (f *frontDoor) run(o passOpts) (*passOut, error) {
	c := f.c
	out := &passOut{ops: len(c.flows), facts: facts{}}
	var plans []*plan.Plan
	var res *federation.Result
	var m0, m1, m2 float64
	if o.ledger {
		m0 = mallocs()
	}

	start := time.Now()
	pl := planner.New(planner.Config{Workers: procs(), CacheSize: planCacheSize})
	planNs, err := o.pt.call("planner.PlanAll", func() (err error) {
		plans, err = pl.PlanAll(c.flows, frontMemberCaps(), priority.LPF{})
		return err
	})
	if err != nil {
		return nil, err
	}
	if o.ledger {
		m1 = mallocs()
	}
	sims := make([]*cluster.Simulator, frontMembers)
	for i := range sims {
		sims[i], err = cluster.New(frontMemberConfig(c.seed), o.pt.policy(newWOHA(c.seed, priority.LPF{})), nil)
		if err != nil {
			return nil, err
		}
		adm, err := newFrontAdmission()
		if err != nil {
			return nil, err
		}
		sims[i].SetAdmission(o.pt.admission(adm))
	}
	fed, err := federation.New(federation.Config{Router: o.pt.router(federation.SlackAware{})}, sims)
	if err != nil {
		return nil, err
	}
	for i, w := range c.flows {
		if err := fed.Submit(w, plans[i]); err != nil {
			return nil, err
		}
	}
	runNs, err := o.pt.call("federation.Run", func() (err error) {
		res, err = fed.Run()
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, s := range sims {
		s.Release()
	}
	out.wall = time.Since(start)
	if o.ledger {
		m2 = mallocs()
		out.facts[fPlanMallocs], out.facts[fPlanMallocN] = m1-m0, float64(len(plans))
		out.facts[fScenMallocs], out.facts[fScenMallocN] = m2-m1, frontMembers
	}

	out.facts.add(facts{
		fWorkflows: float64(len(c.flows)), fTasks: float64(c.tasks), fWallNs: float64(out.wall),
		fPlannerNs: float64(planNs), fSimNs: float64(runNs), fSimWorkerNs: float64(runNs),
	})
	planFacts(out, c.flows, plans)
	f.check(c, res, out)
	o.pt.collectInto(out)
	if o.ledger {
		out.after = func() error { return f.replay(c, plans, res, out) }
	}
	return out, nil
}

// check applies the front door's output checks and fills the digest and the
// facts that come free from the results.
func (f *frontDoor) check(c *corpus, res *federation.Result, out *passOut) {
	dg := newDigester()
	if len(res.Routes) != len(c.flows) || len(res.Workflows) != len(c.flows) {
		out.fail("%d routes and %d outcomes for %d workflows", len(res.Routes), len(res.Workflows), len(c.flows))
		return
	}
	routed := res.RoutedPerCluster()
	maxRouted := 0
	var makespan simtime.Time
	for m, cr := range res.Clusters {
		if len(cr.Workflows) != routed[m] {
			out.fail("member %d holds %d outcomes for %d routes", m, len(cr.Workflows), routed[m])
		}
		maxRouted = max(maxRouted, routed[m])
		makespan = simtime.MaxOf(makespan, cr.Makespan)
		simFacts(out, cr)
	}
	out.facts[fCapSlotNs] = float64(makespan) * float64(f.spec.slots)
	out.facts[fRoutes] = float64(len(res.Routes))
	out.facts[fMaxRouted] = float64(maxRouted)

	for i, rt := range res.Routes {
		if rt.Workflow != res.Workflows[i].Name {
			out.fail("outcome %d is %s but route %d is %s", i, res.Workflows[i].Name, i, rt.Workflow)
		}
	}
	checkOutcomes(c.flows, res.Workflows, func(i int) int { return res.Routes[i].Cluster }, out, dg)
	out.digest = dg.sum()
}

// replay re-runs each member's routed subset as a plain, pre-submitted
// simulator with its own fresh admission controller. What Federation.Run
// took beyond the sum of those replays is the federation layer's own time:
// routing, load snapshots, and lock-step stepping. The subtraction is only
// valid if every replay reproduces its member's result exactly.
func (f *frontDoor) replay(c *corpus, plans []*plan.Plan, res *federation.Result, out *passOut) error {
	planOf := make(map[string]int, len(c.flows))
	for i, w := range c.flows {
		planOf[w.Name] = i
	}
	var total time.Duration
	for m := range res.Clusters {
		sim, err := cluster.New(frontMemberConfig(c.seed), newWOHA(c.seed, priority.LPF{}), nil)
		if err != nil {
			return err
		}
		adm, err := newFrontAdmission()
		if err != nil {
			return err
		}
		sim.SetAdmission(adm)
		for _, rt := range res.Routes {
			if rt.Cluster != m {
				continue
			}
			i := planOf[rt.Workflow]
			if err := sim.Submit(c.flows[i], plans[i]); err != nil {
				return err
			}
		}
		t0 := time.Now()
		got, err := sim.Run()
		total += time.Since(t0)
		if err != nil {
			return err
		}
		sim.Release()
		if !reflect.DeepEqual(got, res.Clusters[m]) {
			out.facts[fReplayBroken]++
		}
	}
	out.facts[fReplayNs] = float64(total)
	return nil
}

// planFacts records what the returned plans say about the planner's work. A
// plan served from the cache reports zero search iterations.
func planFacts(out *passOut, flows []*workflow.Workflow, plans []*plan.Plan) {
	for i, p := range plans {
		out.facts[fPlans]++
		out.facts[fPlanIters] += float64(p.SearchIters)
		if p.SearchIters == 0 {
			out.facts[fPlanHits]++
		}
		if !p.Feasible {
			out.facts[fPlanInfeasible]++
		}
		if p.Makespan <= 0 || p.TotalTasks != flows[i].TotalTasks() {
			out.fail("plan for %s has makespan %v and %d of %d tasks", flows[i].Name, p.Makespan, p.TotalTasks, flows[i].TotalTasks())
		}
	}
}
