package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// plan_mix is client-side plan generation on its own — the paper's
// architectural bet and wohaplan's whole job, too small a share of
// front_door to claim on there. A fresh planner per pass plans the corpus
// against three cluster sizes under three job-priority policies, each once
// cold and then twice more (recurring instances, as in Fig 11), so cold cap
// searches and cache hits are mixed 1 : 2 and a gain on one that costs the
// other shows.
const (
	planScale   = 64
	planRepeats = 3 // one cold PlanAll, then two served from the cache
)

var planSizes = []int{200, 240, 280}

type planMix struct {
	spec corpusSpec
	c    *corpus
}

func setupPlanMix(seed int64, smoke bool) (instance, error) {
	p := &planMix{spec: corpusSpec{scale: planScale, trace: trace.DefaultParams().Scale(1.0, 0.5), refSlots: 2 * planSizes[1]}}
	if smoke {
		p.spec.scale = 1
	}
	var err error
	p.c, err = p.spec.generate(seed)
	return p, err
}

func (p *planMix) describe(w io.Writer) {
	describeCorpus(w, p.c, fmt.Sprintf("plans against %v slots per type × %d policies × %d requests each, scale %d",
		planSizes, len(priority.All()), planRepeats, p.spec.scale))
}

func (p *planMix) run(o passOpts) (*passOut, error) {
	c := p.c
	out := &passOut{facts: facts{}}
	var m0 float64
	if o.ledger {
		m0 = mallocs()
	}
	dg := newDigester()
	var checkNs time.Duration
	start := time.Now()
	pl := planner.New(planner.Config{Workers: procs(), CacheSize: planCacheSize})
	for _, size := range planSizes {
		caps := plan.Caps{Maps: size, Reduces: size}
		for _, pol := range priority.All() {
			var cold []*plan.Plan
			for rep := 0; rep < planRepeats; rep++ {
				var plans []*plan.Plan
				ns, err := o.pt.call("planner.PlanAll", func() (err error) {
					plans, err = pl.PlanAll(c.flows, caps, pol)
					return err
				})
				if err != nil {
					return nil, err
				}
				out.facts[fPlannerNs] += float64(ns)
				// Checking is not planning: keep it out of the pass wall.
				t0 := time.Now()
				out.ops += len(plans)
				planFacts(out, c.flows, plans)
				if rep == 0 {
					cold = plans
					for _, q := range plans {
						digestPlan(dg, q)
					}
				} else {
					for i, q := range plans {
						if !samePlan(q, cold[i]) {
							out.fail("%s at %d slots under %s: request %d differs from the cold plan", c.flows[i].Name, size, pol.Name(), rep+1)
						}
					}
				}
				checkNs += time.Since(t0)
			}
		}
	}
	out.wall = time.Since(start) - checkNs
	if o.ledger {
		out.facts[fPlanMallocs], out.facts[fPlanMallocN] = mallocs()-m0, float64(out.ops)
	}
	out.facts.add(facts{
		fWorkflows: float64(out.ops), fTasks: float64(out.ops) / float64(len(c.flows)) * float64(c.tasks),
		fWallNs: float64(out.wall),
	})
	out.digest = dg.sum()
	o.pt.collectInto(out)
	return out, nil
}

// samePlan reports whether two plans are the same plan (SearchIters, the
// diagnostic a cache hit zeroes, aside).
func samePlan(a, b *plan.Plan) bool {
	return a.Policy == b.Policy && a.Cap == b.Cap && a.Makespan == b.Makespan && a.Feasible == b.Feasible &&
		a.TotalTasks == b.TotalTasks && slices.Equal(a.Ranks, b.Ranks) && slices.Equal(a.Reqs, b.Reqs)
}

func digestPlan(dg *digester, p *plan.Plan) {
	dg.int(int64(p.Cap))
	dg.int(int64(p.Makespan))
	dg.bool(p.Feasible)
	for _, r := range p.Ranks {
		dg.int(int64(r))
	}
	for _, r := range p.Reqs {
		dg.int(int64(r.TTD))
		dg.int(int64(r.Cum))
	}
}

func (p *planMix) extras() (map[string]float64, error) {
	return plannerExtras(p.c.flows, plan.Caps{Maps: planSizes[0], Reduces: planSizes[0]})
}

// plannerExtras takes the planner readings that need per-plan timing: every
// workflow planned once cold and once from the cache by a sequential planner
// (Workers = 1 is exactly the search PlanAll runs per workflow), and the same
// cold batch through PlanAll across the cores. The ratio of the two cold
// walls is what the second core buys the planner; the batch is short, so the
// pair is repeated with fresh planners and the walls' medians are compared.
func plannerExtras(flows []*workflow.Workflow, caps plan.Caps) (map[string]float64, error) {
	const repeats = 5
	var cold, hit agg
	var serial, parallel []float64
	for rep := 0; rep < repeats; rep++ {
		pl1 := planner.New(planner.Config{Workers: 1, CacheSize: planCacheSize})
		for _, a := range []*agg{&cold, &hit} {
			start := time.Now()
			for _, w := range flows {
				t0 := time.Now()
				if _, err := pl1.Plan(w, caps, priority.LPF{}); err != nil {
					return nil, err
				}
				a.add(int64(time.Since(t0)))
			}
			if a == &cold {
				serial = append(serial, float64(time.Since(start)))
			}
		}
		plN := planner.New(planner.Config{Workers: procs(), CacheSize: planCacheSize})
		t0 := time.Now()
		if _, err := plN.PlanAll(flows, caps, priority.LPF{}); err != nil {
			return nil, err
		}
		parallel = append(parallel, float64(time.Since(t0)))
	}
	return map[string]float64{
		"planner.cold_us_p50":      cold.quantile(0.5) / 1e3,
		"planner.cold_us_p99":      cold.quantile(0.99) / 1e3,
		"planner.hit_us_p50":       hit.quantile(0.5) / 1e3,
		"planner.parallel_speedup": median(serial) / median(parallel),
		"samples.planner.cold_us":  float64(cold.count),
		"samples.planner.hit_us":   float64(hit.count),
	}, nil
}
